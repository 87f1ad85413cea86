package main

import (
	"math/rand"

	"hotspot/internal/geom"
	"hotspot/internal/layout"
)

// edit is one ECO change to a layer's rectangle list: it moves the
// rectangle at Index from From to To, or, with Index -1, adds To.
type edit struct {
	Index    int
	From, To geom.Rect
}

// Edits stay this far inside the geometry bounds. The bounds' low corner
// anchors the snap grid every tile key is taken relative to, so an edit
// that moved it would dirty every tile; the margin also keeps each edit
// off the chip edge.
const editMargin = 5000

// shortSide is the longest rectangle an edit moves or adds: a short wire
// or a motif piece, never a background wire spanning a routing block.
const shortSide = 1200

// maxMove is the largest shift of a move edit along each axis.
const maxMove = 200

// planEdits draws n seeded edits against rects, each applied on top of
// the previous ones. About half move a short rectangle to 40-200 nm from
// its original place along each axis; the rest add a short wire as wide
// as a background wire. Every edit changes the geometry, so it dirties at
// least one tile.
func planEdits(rects []geom.Rect, seed int64, n int) []edit {
	rng := rand.New(rand.NewSource(seed))
	gb := geom.BoundingBox(rects)
	inner := geom.R(gb.X0+editMargin, gb.Y0+editMargin, gb.X1-editMargin, gb.Y1-editMargin)
	var short []int
	for i, r := range rects {
		if max(r.W(), r.H()) <= shortSide && inner.Expand(-maxMove).ContainsRect(r) {
			short = append(short, i)
		}
	}
	state := append([]geom.Rect(nil), rects...)
	offset := func() geom.Coord {
		d := geom.Coord(40 + rng.Intn(maxMove-40+1))
		if rng.Intn(2) == 0 {
			d = -d
		}
		return d
	}
	out := make([]edit, 0, n)
	for len(out) < n {
		if len(short) > 0 && rng.Intn(2) == 0 {
			i := short[rng.Intn(len(short))]
			to := rects[i].Translate(offset(), offset())
			if to == state[i] {
				continue // the rectangle is already there
			}
			out = append(out, edit{Index: i, From: state[i], To: to})
			state[i] = to
			continue
		}
		width := geom.Coord(80 + rng.Intn(8)*10)
		length := geom.Coord(400 + rng.Intn(shortSide-400+1))
		w, h := length, width
		if rng.Intn(2) == 0 {
			w, h = h, w
		}
		x := inner.X0 + geom.Coord(rng.Int63n(int64(inner.W()-w)))
		y := inner.Y0 + geom.Coord(rng.Int63n(int64(inner.H()-h)))
		out = append(out, edit{Index: -1, To: geom.R(x, y, x+w, y+h)})
	}
	return out
}

// editedLayouts applies the edits to base's layer one after another and
// returns the layout after each of them. Other layers are copied as they
// are, and every layout keeps base's design frame.
func editedLayouts(base *layout.Layout, layer layout.Layer, edits []edit) []*layout.Layout {
	state := append([]geom.Rect(nil), base.Rects(layer)...)
	out := make([]*layout.Layout, len(edits))
	for k, e := range edits {
		if e.Index >= 0 {
			state[e.Index] = e.To
		} else {
			state = append(state, e.To)
		}
		l := layout.New(base.Name)
		for _, id := range base.Layers() {
			rects := base.Rects(id)
			if id == layer {
				rects = state
			}
			for _, r := range rects {
				l.AddRect(id, r)
			}
		}
		l.Bounds = l.Bounds.Union(base.Bounds)
		out[k] = l
	}
	return out
}
