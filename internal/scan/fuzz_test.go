package scan

import (
	"encoding/base64"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"hotspot/internal/clip"
	"hotspot/internal/geom"
)

// FuzzOpenStore feeds arbitrary bytes to OpenStore as an existing store
// file. Whatever the bytes, opening must not panic; a store it returns
// must serve Get, accept a Put, and serve that entry after a reopen — the
// torn-tail heal and header invalidation must leave the file appendable.
func FuzzOpenStore(f *testing.F) {
	// A version 1 store: its header no longer matches, so it seeds the
	// invalidation path.
	valid := "{\"v\":1,\"digest\":\"d\"}\n" +
		"{\"k\":\"a\",\"cands\":[{\"at\":{\"X\":1,\"Y\":2},\"key\":{\"Cell\":{\"X\":0,\"Y\":0},\"Topo\":\"t\"},\"flagged\":true}]}\n" +
		"{\"k\":\"b\",\"cands\":[]}\n"
	f.Add([]byte(valid))
	f.Add([]byte(valid[:len(valid)-9]))       // torn tail
	f.Add([]byte("\x00garbage header\n{}\n")) // garbage header
	f.Add([]byte{})                           // empty file
	v2 := []byte("{\"v\":2,\"digest\":\"d\"}\n")
	v2 = appendEntryLine(v2, "a", storeCands(3))
	v2 = appendEntryLine(v2, "b", nil)
	f.Add(v2)
	f.Add(v2[:len(v2)-7]) // torn version 2 tail

	want := storeCands(3)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "store.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenStore(path, "d", true)
		if err != nil {
			return
		}
		st.Get("a")
		if err := st.Put("fuzz", want); err != nil {
			st.Close()
			t.Fatalf("Put: %v", err)
		}
		st.Close()

		st, err = OpenStore(path, "d", true)
		if err != nil {
			t.Fatalf("reopen after Put: %v", err)
		}
		defer st.Close()
		if got, ok := st.Get("fuzz"); !ok || !candsEqual(got, want) {
			t.Fatalf("reopened store lost the entry: got %v, %v", got, ok)
		}
	})
}

// fuzzCands decodes a candidate set from data, one 18-byte record per
// candidate: four little-endian int32 coordinates (At.X, At.Y, Cell.X,
// Cell.Y), a flag byte and a topology byte picking from a table that
// includes the empty string.
func fuzzCands(data []byte) []Candidate {
	topos := []string{"", "t", "0:1|2,3", "a topology with spaces", "line\nbreak"}
	var out []Candidate
	for ; len(data) >= 18; data = data[18:] {
		c := func(i int) geom.Coord { return geom.Coord(int32(binary.LittleEndian.Uint32(data[4*i:]))) }
		out = append(out, Candidate{
			At:        geom.Pt(c(0), c(1)),
			Key:       clip.Key{Cell: geom.Pt(c(2), c(3)), Topo: topos[int(data[17])%len(topos)]},
			Flagged:   data[16]&1 != 0,
			Reclaimed: data[16]&2 != 0,
		})
	}
	return out
}

// fuzzCandRecord encodes one fuzzCands record.
func fuzzCandRecord(x, y, cx, cy int32, flags, topo byte) []byte {
	var b []byte
	for _, v := range []int32{x, y, cx, cy} {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return append(b, flags, topo)
}

// FuzzStoreEntries round-trips the candidate set that data encodes (see
// fuzzCands) through Put, a reopen and Get: whole, as an empty set, and
// split in two, under keys holding spaces, newlines and arbitrary bytes.
// It also decodes data as an entry line, both raw and as the base64 of a
// record: whatever the bytes, decoding must not panic, and must not
// allocate more than a small multiple of the line's length.
func FuzzStoreEntries(f *testing.F) {
	var edges []byte
	for _, v := range [][4]int32{
		{0, 0, 0, 0},
		{-1, -2, -3, -4},
		{math.MinInt32, math.MaxInt32, math.MaxInt32, math.MinInt32},
		{1 << 20, -(1 << 20), 7, -7},
	} {
		edges = append(edges, fuzzCandRecord(v[0], v[1], v[2], v[3], byte(len(edges)), byte(len(edges)/18))...)
	}
	f.Add(edges)
	f.Add([]byte{})
	f.Add(fuzzCandRecord(5, 6, 7, 8, 3, 4))
	f.Add(appendEntryLine(nil, "key", storeCands(4)))
	f.Fuzz(func(t *testing.T, data []byte) {
		cands := fuzzCands(data)
		half := len(cands) / 2
		entries := map[string][]Candidate{
			"whole set":       cands,
			"":                {},
			"first\nhalf":     cands[:half],
			"second half \r ": cands[half:],
			string(data[:min(len(data), 9)]) + "\x00raw": cands[half/2:],
		}
		path := filepath.Join(t.TempDir(), "store")
		st, err := OpenStore(path, "d", true)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range entries {
			if err := st.Put(k, v); err != nil {
				t.Fatal(err)
			}
		}
		st.Close()
		st, err = OpenStore(path, "d", true)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		for k, want := range entries {
			if got, ok := st.Get(k); !ok || !candsEqual(got, want) {
				t.Fatalf("Get(%q) after reopen = %v, %v; want %v", k, got, ok, want)
			}
		}
		if ss := st.Stats(); ss.Entries != len(entries) || ss.Invalidated {
			t.Fatalf("reopened stats %+v, want %d entries", ss, len(entries))
		}

		for _, line := range [][]byte{
			append(slices.Clone(data), '\n'),
			append(base64.StdEncoding.AppendEncode(nil, data), '\n'),
		} {
			var dec entryDecoder
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			dec.decode(line)
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 128*uint64(len(line))+64<<10 {
				t.Fatalf("decoding a %d-byte line allocated %d bytes", len(line), grew)
			}
		}
	})
}
