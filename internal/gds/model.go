package gds

import (
	"fmt"
	"io"

	"hotspot/internal/geom"
)

// Library is a parsed GDSII library.
type Library struct {
	Name string
	// UserUnit is the size of one database unit in user units (usually 1e-3
	// for nm databases with µm user units).
	UserUnit float64
	// MeterUnit is the size of one database unit in metres (usually 1e-9).
	MeterUnit  float64
	Structures []*Structure
}

// Structure is a GDSII structure (cell).
type Structure struct {
	Name       string
	Boundaries []Boundary
	Paths      []Path
	SRefs      []SRef
	ARefs      []ARef
}

// Boundary is a filled polygon on a layer.
type Boundary struct {
	Layer    int16
	Datatype int16
	// Pts is the closed vertex ring. GDSII repeats the first vertex at the
	// end on disk; the model stores the ring without the repetition.
	Pts []geom.Point
}

// Path is a wire with a width.
type Path struct {
	Layer    int16
	Datatype int16
	Pathtype int16
	Width    int32
	Pts      []geom.Point
}

// SRef is a structure reference (a placed instance of another cell).
type SRef struct {
	Name string
	// Reflect mirrors about the x-axis before rotation, per GDSII STRANS.
	Reflect bool
	// AngleCCW is the placement rotation in degrees counterclockwise.
	// Only multiples of 90 are supported by the flattener.
	AngleCCW float64
	Origin   geom.Point
}

// ARef is an array reference: a Cols x Rows grid of instances.
type ARef struct {
	Name       string
	Reflect    bool
	AngleCCW   float64
	Cols, Rows int16
	// Origin, ColStep and RowStep define the lattice per the GDSII XY
	// triple: Origin, Origin+Cols*colPitch, Origin+Rows*rowPitch.
	Origin geom.Point
	ColVec geom.Point // displacement from origin to the far column corner
	RowVec geom.Point // displacement from origin to the far row corner
}

// Structure lookup by name.
func (l *Library) Structure(name string) *Structure {
	for _, s := range l.Structures {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Parse reads a complete GDSII stream into a Library.
func Parse(r io.Reader) (*Library, error) {
	rr := NewRecordReader(r)
	lib := &Library{UserUnit: 1e-3, MeterUnit: 1e-9}

	rec, err := rr.Next()
	if err != nil {
		return nil, fmt.Errorf("gds: reading HEADER: %w", err)
	}
	if rec.Type != RecHeader {
		return nil, fmt.Errorf("gds: stream does not start with HEADER (got %#x)", rec.Type)
	}

	var cur *Structure
	var curEl *elementBuilder
	for {
		rec, err = rr.Next()
		if err == io.EOF {
			return nil, fmt.Errorf("gds: missing ENDLIB")
		}
		if err != nil {
			return nil, err
		}
		// A structure or library boundary inside an element would commit
		// the element to a closed structure (or drop it): fail closed.
		if curEl != nil && (rec.Type == RecEndLib || rec.Type == RecBgnStr || rec.Type == RecEndStr) {
			return nil, fmt.Errorf("gds: %s inside an element (missing ENDEL)", rec.Type.Name())
		}
		switch rec.Type {
		case RecEndLib:
			return lib, nil
		case RecBgnLib, RecBgnStr:
			if rec.Type == RecBgnStr {
				cur = &Structure{}
				lib.Structures = append(lib.Structures, cur)
			}
		case RecLibName:
			lib.Name, err = rec.ASCII()
			if err != nil {
				return nil, err
			}
		case RecUnits:
			vals, err := rec.Reals()
			if err != nil {
				return nil, err
			}
			if len(vals) != 2 {
				return nil, fmt.Errorf("gds: UNITS has %d reals, want 2", len(vals))
			}
			lib.UserUnit, lib.MeterUnit = vals[0], vals[1]
		case RecStrName:
			if cur == nil {
				return nil, fmt.Errorf("gds: STRNAME outside structure")
			}
			cur.Name, err = rec.ASCII()
			if err != nil {
				return nil, err
			}
		case RecEndStr:
			cur = nil
		case RecBoundary, RecPath, RecSRef, RecARef, RecText:
			if cur == nil {
				return nil, fmt.Errorf("gds: element record %#x outside structure", rec.Type)
			}
			curEl = &elementBuilder{kind: rec.Type}
		case RecEndEl:
			if curEl == nil {
				return nil, fmt.Errorf("gds: ENDEL without element")
			}
			if err := curEl.commit(cur); err != nil {
				return nil, err
			}
			curEl = nil
		default:
			if curEl != nil {
				if err := curEl.feed(rec); err != nil {
					return nil, err
				}
			}
			// Records outside elements that we do not model (dates, attrs)
			// are skipped.
		}
	}
}

// elementBuilder accumulates the records of one element until ENDEL.
type elementBuilder struct {
	kind     RecordType
	layer    int16
	datatype int16
	pathtype int16
	width    int32
	sname    string
	reflect  bool
	angle    float64
	colrow   [2]int16
	xy       []int32
}

func (b *elementBuilder) feed(rec Record) error {
	switch rec.Type {
	case RecLayer:
		v, err := rec.Int16s()
		if err != nil {
			return err
		}
		if len(v) > 0 {
			b.layer = v[0]
		}
	case RecDatatype:
		v, err := rec.Int16s()
		if err != nil {
			return err
		}
		if len(v) > 0 {
			b.datatype = v[0]
		}
	case RecPathtype:
		v, err := rec.Int16s()
		if err != nil {
			return err
		}
		if len(v) > 0 {
			b.pathtype = v[0]
		}
	case RecWidth:
		v, err := rec.Int32s()
		if err != nil {
			return err
		}
		if len(v) > 0 {
			b.width = v[0]
		}
	case RecSName:
		s, err := rec.ASCII()
		if err != nil {
			return err
		}
		b.sname = s
	case RecSTrans:
		if len(rec.Body) >= 2 {
			b.reflect = rec.Body[0]&0x80 != 0
		}
	case RecAngle:
		v, err := rec.Reals()
		if err != nil {
			return err
		}
		if len(v) > 0 {
			b.angle = v[0]
		}
	case RecMag:
		v, err := rec.Reals()
		if err != nil {
			return err
		}
		if len(v) > 0 && v[0] != 1 {
			return fmt.Errorf("gds: magnification %v not supported", v[0])
		}
	case RecColRow:
		v, err := rec.Int16s()
		if err != nil {
			return err
		}
		if len(v) != 2 {
			return fmt.Errorf("gds: COLROW has %d values, want 2", len(v))
		}
		b.colrow[0], b.colrow[1] = v[0], v[1]
	case RecXY:
		v, err := rec.Int32s()
		if err != nil {
			return err
		}
		b.xy = v
	}
	return nil
}

func (b *elementBuilder) points() ([]geom.Point, error) {
	if len(b.xy)%2 != 0 {
		return nil, fmt.Errorf("gds: XY has odd coordinate count %d", len(b.xy))
	}
	pts := make([]geom.Point, len(b.xy)/2)
	for i := range pts {
		pts[i] = geom.Point{X: b.xy[2*i], Y: b.xy[2*i+1]}
	}
	return pts, nil
}

func (b *elementBuilder) commit(s *Structure) error {
	pts, err := b.points()
	if err != nil {
		return err
	}
	switch b.kind {
	case RecBoundary:
		if len(pts) < 4 {
			return fmt.Errorf("gds: boundary with %d points", len(pts))
		}
		// Drop the duplicated closing vertex.
		if pts[0] == pts[len(pts)-1] {
			pts = pts[:len(pts)-1]
		}
		s.Boundaries = append(s.Boundaries, Boundary{Layer: b.layer, Datatype: b.datatype, Pts: pts})
	case RecPath:
		if len(pts) < 2 {
			return fmt.Errorf("gds: path with %d points", len(pts))
		}
		s.Paths = append(s.Paths, Path{
			Layer: b.layer, Datatype: b.datatype,
			Pathtype: b.pathtype, Width: b.width, Pts: pts,
		})
	case RecSRef:
		if len(pts) != 1 {
			return fmt.Errorf("gds: sref with %d points, want 1", len(pts))
		}
		s.SRefs = append(s.SRefs, SRef{
			Name: b.sname, Reflect: b.reflect, AngleCCW: b.angle, Origin: pts[0],
		})
	case RecARef:
		if len(pts) != 3 {
			return fmt.Errorf("gds: aref with %d points, want 3", len(pts))
		}
		s.ARefs = append(s.ARefs, ARef{
			Name: b.sname, Reflect: b.reflect, AngleCCW: b.angle,
			Cols: b.colrow[0], Rows: b.colrow[1],
			Origin: pts[0],
			ColVec: pts[1].Sub(pts[0]),
			RowVec: pts[2].Sub(pts[0]),
		})
	case RecText:
		// Text elements carry no mask geometry; they are parsed and dropped.
	default:
		return fmt.Errorf("gds: unknown element kind %#x", b.kind)
	}
	return nil
}

// Write serializes the library as a GDSII stream.
func (l *Library) Write(w io.Writer) error {
	rw := NewRecordWriter(w)
	steps := []func() error{
		func() error { return rw.WriteInt16s(RecHeader, 600) },
		func() error {
			// Twelve zero int16s: creation and modification timestamps. We
			// write zeros for deterministic output.
			return rw.WriteInt16s(RecBgnLib, make([]int16, 12)...)
		},
		func() error { return rw.WriteASCII(RecLibName, l.Name) },
		func() error { return rw.WriteReals(RecUnits, l.UserUnit, l.MeterUnit) },
	}
	for _, f := range steps {
		if err := f(); err != nil {
			return err
		}
	}
	for _, s := range l.Structures {
		if err := writeStructure(rw, s); err != nil {
			return fmt.Errorf("gds: structure %q: %w", s.Name, err)
		}
	}
	return rw.WriteEmpty(RecEndLib)
}

func writeStructure(rw *RecordWriter, s *Structure) error {
	if err := rw.WriteInt16s(RecBgnStr, make([]int16, 12)...); err != nil {
		return err
	}
	if err := rw.WriteASCII(RecStrName, s.Name); err != nil {
		return err
	}
	for _, b := range s.Boundaries {
		if err := writeBoundary(rw, b); err != nil {
			return err
		}
	}
	for _, p := range s.Paths {
		if err := writePath(rw, p); err != nil {
			return err
		}
	}
	for _, r := range s.SRefs {
		if err := writeSRef(rw, r); err != nil {
			return err
		}
	}
	for _, r := range s.ARefs {
		if err := writeARef(rw, r); err != nil {
			return err
		}
	}
	return rw.WriteEmpty(RecEndStr)
}

func writeXY(rw *RecordWriter, pts []geom.Point) error {
	xy := make([]int32, 0, 2*len(pts))
	for _, p := range pts {
		xy = append(xy, p.X, p.Y)
	}
	return rw.WriteInt32s(RecXY, xy...)
}

func writeBoundary(rw *RecordWriter, b Boundary) error {
	if err := rw.WriteEmpty(RecBoundary); err != nil {
		return err
	}
	if err := rw.WriteInt16s(RecLayer, b.Layer); err != nil {
		return err
	}
	if err := rw.WriteInt16s(RecDatatype, b.Datatype); err != nil {
		return err
	}
	pts := b.Pts
	// GDSII closes the ring explicitly.
	if len(pts) > 0 && pts[0] != pts[len(pts)-1] {
		pts = append(append([]geom.Point{}, pts...), pts[0])
	}
	if err := writeXY(rw, pts); err != nil {
		return err
	}
	return rw.WriteEmpty(RecEndEl)
}

func writePath(rw *RecordWriter, p Path) error {
	if err := rw.WriteEmpty(RecPath); err != nil {
		return err
	}
	if err := rw.WriteInt16s(RecLayer, p.Layer); err != nil {
		return err
	}
	if err := rw.WriteInt16s(RecDatatype, p.Datatype); err != nil {
		return err
	}
	if p.Pathtype != 0 {
		if err := rw.WriteInt16s(RecPathtype, p.Pathtype); err != nil {
			return err
		}
	}
	if err := rw.WriteInt32s(RecWidth, p.Width); err != nil {
		return err
	}
	if err := writeXY(rw, p.Pts); err != nil {
		return err
	}
	return rw.WriteEmpty(RecEndEl)
}

func writeTrans(rw *RecordWriter, reflect bool, angle float64) error {
	if !reflect && angle == 0 {
		return nil
	}
	var flags uint16
	if reflect {
		flags |= 0x8000
	}
	if err := rw.Write(RecSTrans, DataBitArr, []byte{byte(flags >> 8), byte(flags)}); err != nil {
		return err
	}
	if angle != 0 {
		return rw.WriteReals(RecAngle, angle)
	}
	return nil
}

func writeSRef(rw *RecordWriter, r SRef) error {
	if err := rw.WriteEmpty(RecSRef); err != nil {
		return err
	}
	if err := rw.WriteASCII(RecSName, r.Name); err != nil {
		return err
	}
	if err := writeTrans(rw, r.Reflect, r.AngleCCW); err != nil {
		return err
	}
	if err := writeXY(rw, []geom.Point{r.Origin}); err != nil {
		return err
	}
	return rw.WriteEmpty(RecEndEl)
}

func writeARef(rw *RecordWriter, r ARef) error {
	if err := rw.WriteEmpty(RecARef); err != nil {
		return err
	}
	if err := rw.WriteASCII(RecSName, r.Name); err != nil {
		return err
	}
	if err := writeTrans(rw, r.Reflect, r.AngleCCW); err != nil {
		return err
	}
	if err := rw.WriteInt16s(RecColRow, r.Cols, r.Rows); err != nil {
		return err
	}
	pts := []geom.Point{
		r.Origin,
		r.Origin.Add(r.ColVec),
		r.Origin.Add(r.RowVec),
	}
	if err := writeXY(rw, pts); err != nil {
		return err
	}
	return rw.WriteEmpty(RecEndEl)
}
