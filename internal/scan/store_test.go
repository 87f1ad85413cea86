package scan

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hotspot/internal/clip"
	"hotspot/internal/geom"
)

func storeCands(n int) []Candidate {
	out := make([]Candidate, n)
	for i := range out {
		out[i] = Candidate{
			At:      geom.Pt(geom.Coord(100*i), geom.Coord(50*i)),
			Key:     clip.Key{Cell: geom.Pt(geom.Coord(i), geom.Coord(2*i)), Topo: "t"},
			Flagged: i%2 == 0,
		}
	}
	return out
}

func candsEqual(a, b []Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A store closed and reopened under the same digest serves every entry it
// was given; reopening with reuse=false rebuilds it empty.
func TestStoreRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	st, err := OpenStore(path, "digest-a", true)
	if err != nil {
		t.Fatal(err)
	}
	want := storeCands(5)
	if err := st.Put("k1", want); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("k2", nil); err != nil { // empty tile is still a result
		t.Fatal(err)
	}
	st.Close()

	st, err = OpenStore(path, "digest-a", true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got, ok := st.Get("k1")
	if !ok || !candsEqual(got, want) {
		t.Fatalf("Get(k1) = %v, %v; want %v, true", got, ok, want)
	}
	if got, ok := st.Get("k2"); !ok || len(got) != 0 {
		t.Fatalf("Get(k2) = %v, %v; want empty, true", got, ok)
	}
	if _, ok := st.Get("absent"); ok {
		t.Fatal("Get(absent) hit")
	}
	ss := st.Stats()
	if ss.Entries != 2 || ss.Hits != 2 || ss.Misses != 1 || ss.Invalidated {
		t.Fatalf("stats = %+v; want 2 entries, 2 hits, 1 miss, not invalidated", ss)
	}

	// reuse=false forces a rebuild: the old entries are gone.
	st2, err := OpenStore(path, "digest-a", false)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, ok := st2.Get("k1"); ok {
		t.Fatal("rebuilt store still serves old entry")
	}
}

// A torn trailing write (killed scan) must not cost the completed entries
// before it, and the first append after reopening must heal the tail so
// entries written afterwards load too.
func TestStoreTornTailHeals(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	st, err := OpenStore(path, "d", true)
	if err != nil {
		t.Fatal(err)
	}
	want := storeCands(3)
	if err := st.Put("good", want); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Simulate the kill: a partial line with no trailing newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"k":"torn","cands":[{"at":`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err = OpenStore(path, "d", true)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Get("good"); !ok || !candsEqual(got, want) {
		t.Fatalf("entry before torn tail lost: %v, %v", got, ok)
	}
	if _, ok := st.Get("torn"); ok {
		t.Fatal("torn entry served")
	}
	if err := st.Put("after", want); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st, err = OpenStore(path, "d", true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, k := range []string{"good", "after"} {
		if got, ok := st.Get(k); !ok || !candsEqual(got, want) {
			t.Fatalf("Get(%q) after heal = %v, %v; want %v, true", k, got, ok, want)
		}
	}
	if _, ok := st.Get("torn"); ok {
		t.Fatal("torn entry resurrected after heal")
	}
}

// A store written by a different model digest (or format version) is
// discarded wholesale: a changed model can flip any tile's verdict.
func TestStoreDigestMismatchInvalidates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	st, err := OpenStore(path, "model-a", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("k", storeCands(2)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st, err = OpenStore(path, "model-b", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get("k"); ok {
		t.Fatal("entry from model-a served under model-b")
	}
	if ss := st.Stats(); !ss.Invalidated || ss.Entries != 0 {
		t.Fatalf("stats = %+v; want invalidated, 0 entries", ss)
	}
	if err := st.Put("k2", storeCands(1)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// The rebuilt file carries model-b's digest: reopening under it loads
	// cleanly and is no longer invalidated.
	st, err = OpenStore(path, "model-b", true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, ok := st.Get("k2"); !ok {
		t.Fatal("entry written after invalidation lost")
	}
	if ss := st.Stats(); ss.Invalidated {
		t.Fatalf("stats = %+v; want not invalidated after rebuild", ss)
	}
}

// A garbage header (not even JSON) invalidates like a digest mismatch
// rather than failing the open.
func TestStoreGarbageHeaderInvalidates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	if err := os.WriteFile(path, []byte("not a header\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(path, "d", true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if ss := st.Stats(); !ss.Invalidated || ss.Entries != 0 {
		t.Fatalf("stats = %+v; want invalidated, 0 entries", ss)
	}
}

// A version 1 store (JSON entry lines) is not read: opening it under the
// same digest reports it invalidated and rebuilds the file as version 2.
func TestStoreV1Invalidated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	v1 := `{"v":1,"digest":"d"}
{"k":"a","cands":[{"at":{"X":1,"Y":2},"key":{"cell":{"X":0,"Y":0},"topo":"t"},"flagged":true}]}
{"k":"b","cands":[]}
`
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(path, "d", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get("a"); ok {
		t.Fatal("served an entry from a version 1 store")
	}
	if ss := st.Stats(); !ss.Invalidated || ss.Entries != 0 {
		t.Fatalf("stats = %+v; want invalidated, 0 entries", ss)
	}
	want := storeCands(2)
	if err := st.Put("a", want); err != nil {
		t.Fatal(err)
	}
	st.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr, _, _ := strings.Cut(string(raw), "\n"); hdr != `{"v":2,"digest":"d"}` {
		t.Fatalf("rebuilt header %q, want version 2", hdr)
	}
	st, err = OpenStore(path, "d", true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got, ok := st.Get("a"); !ok || !candsEqual(got, want) {
		t.Fatalf("Get(a) from the rebuilt store = %v, %v; want %v", got, ok, want)
	}
	if ss := st.Stats(); ss.Invalidated || ss.Entries != 1 {
		t.Fatalf("rebuilt store stats = %+v; want 1 entry, not invalidated", ss)
	}
}

// TileKey is translation-equivariant: rigidly shifting tile, geometry, and
// snap base together leaves the key unchanged — the property that lets a
// moved-but-unedited block re-hit the store.
func TestTileKeyTranslationEquivariant(t *testing.T) {
	tile := geom.R(1000, 2000, 5000, 6000)
	rects := []geom.Rect{geom.R(900, 1900, 1500, 2500), geom.R(4000, 4000, 4400, 7000)}
	base := geom.Pt(1000, 2000)
	k0 := TileKey(tile, append([]geom.Rect(nil), rects...), base)

	const dx, dy = 12_345, -6_789
	shifted := make([]geom.Rect, len(rects))
	for i, r := range rects {
		shifted[i] = r.Translate(dx, dy)
	}
	k1 := TileKey(tile.Translate(dx, dy), shifted, geom.Pt(base.X+dx, base.Y+dy))
	if k0 != k1 {
		t.Fatal("rigid translation changed the tile key")
	}

	// Shifting only the base (not the geometry) must change it.
	if k2 := TileKey(tile, append([]geom.Rect(nil), rects...), geom.Pt(base.X+1, base.Y)); k2 == k0 {
		t.Fatal("base shift alone did not change the tile key")
	}
}

// The key is independent of geometry query order but sensitive to every
// input it fingerprints.
func TestTileKeySensitivity(t *testing.T) {
	tile := geom.R(0, 0, 4000, 4000)
	rects := []geom.Rect{geom.R(10, 10, 20, 20), geom.R(30, 5, 40, 50), geom.R(5, 100, 600, 200)}
	base := geom.Pt(0, 0)
	k0 := TileKey(tile, append([]geom.Rect(nil), rects...), base)

	reversed := []geom.Rect{rects[2], rects[1], rects[0]}
	if k := TileKey(tile, reversed, base); k != k0 {
		t.Fatal("rect order perturbed the tile key")
	}
	edited := append([]geom.Rect(nil), rects...)
	edited[1].X1 += 10
	if k := TileKey(tile, edited, base); k == k0 {
		t.Fatal("edited geometry did not change the tile key")
	}
	if k := TileKey(geom.R(0, 0, 4000, 4400), append([]geom.Rect(nil), rects...), base); k == k0 {
		t.Fatal("different tile rect did not change the tile key")
	}
	if k := ShardKey(tile, append([]geom.Rect(nil), rects...), base, 0); k == k0 {
		t.Fatal("shard key collides with tile key for identical inputs")
	}
	if k := ShardKey(tile, append([]geom.Rect(nil), rects...), base, 4000); k == ShardKey(tile, append([]geom.Rect(nil), rects...), base, 2000) {
		t.Fatal("tile side did not change the shard key")
	}
}

func TestRelocateCandidates(t *testing.T) {
	cands := []Candidate{{
		At:  geom.Pt(100, 200),
		Key: clip.Key{Cell: geom.Pt(3, 4), Topo: "t"},
	}}
	moved := RelocateCandidates(cands, 10, -20, false)
	if moved[0].At != geom.Pt(110, 180) || moved[0].Key.Cell != geom.Pt(3, 4) {
		t.Fatalf("moveCell=false: got %+v", moved[0])
	}
	if cands[0].At != geom.Pt(100, 200) {
		t.Fatal("RelocateCandidates mutated its input")
	}
	moved = RelocateCandidates(cands, 10, -20, true)
	if moved[0].At != geom.Pt(110, 180) || moved[0].Key.Cell != geom.Pt(13, -16) {
		t.Fatalf("moveCell=true: got %+v", moved[0])
	}
	if got := RelocateCandidates(cands, 0, 0, true); &got[0] != &cands[0] {
		t.Fatal("zero shift should return the input unchanged")
	}
}
