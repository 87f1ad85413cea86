package geom

// Orientation enumerates the eight axis-preserving symmetries of the square
// (the dihedral group D8): four rotations and their horizontal mirrors. The
// paper's topological classification and density distance both minimize over
// these eight orientations.
type Orientation uint8

// The eight orientations. RotN is a counterclockwise rotation by N degrees;
// MirRotN first mirrors about the vertical axis (x -> -x) then rotates.
const (
	Rot0 Orientation = iota
	Rot90
	Rot180
	Rot270
	MirRot0
	MirRot90
	MirRot180
	MirRot270
	NumOrientations = 8
)

// AllOrientations lists every orientation, for range loops.
var AllOrientations = [NumOrientations]Orientation{
	Rot0, Rot90, Rot180, Rot270, MirRot0, MirRot90, MirRot180, MirRot270,
}

// String implements fmt.Stringer.
func (o Orientation) String() string {
	switch o {
	case Rot0:
		return "R0"
	case Rot90:
		return "R90"
	case Rot180:
		return "R180"
	case Rot270:
		return "R270"
	case MirRot0:
		return "MX0"
	case MirRot90:
		return "MX90"
	case MirRot180:
		return "MX180"
	case MirRot270:
		return "MX270"
	}
	return "R?"
}

// ApplyToPoint maps p, given inside the square window [0,s)x[0,s), to its
// location under orientation o of the same window.
func (o Orientation) ApplyToPoint(p Point, s Coord) Point {
	x, y := p.X, p.Y
	if o >= MirRot0 {
		x = s - x // mirror about the vertical axis
	}
	switch o & 3 {
	case 0:
		return Point{x, y}
	case 1: // rot 90 CCW: (x,y) -> (s-y, x)
		return Point{s - y, x}
	case 2:
		return Point{s - x, s - y}
	default: // rot 270 CCW
		return Point{y, s - x}
	}
}

// ApplyToRect maps r within the square window of side s under o.
func (o Orientation) ApplyToRect(r Rect, s Coord) Rect {
	a := o.ApplyToPoint(Point{r.X0, r.Y0}, s)
	b := o.ApplyToPoint(Point{r.X1, r.Y1}, s)
	return R(a.X, a.Y, b.X, b.Y)
}

// ApplyToRects maps each rectangle under o within the square window of
// side s, returning a new slice.
func (o Orientation) ApplyToRects(rects []Rect, s Coord) []Rect {
	out := make([]Rect, len(rects))
	for i, r := range rects {
		out[i] = o.ApplyToRect(r, s)
	}
	return out
}
