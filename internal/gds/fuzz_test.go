package gds

import (
	"bytes"
	"testing"
)

// FuzzParse checks that arbitrary byte streams never panic the GDSII
// parser — they either parse or return an error. Run with
// `go test -fuzz=FuzzParse ./internal/gds` for a real fuzzing session;
// the seed corpus runs as a normal test.
func FuzzParse(f *testing.F) {
	// Seeds: a valid library, a truncation, a header-only stream, garbage,
	// and a structure closed inside an open element.
	var valid bytes.Buffer
	if err := testLibrary().Write(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add([]byte{0x00, 0x06, 0x00, 0x02, 0x02, 0x58})
	f.Add([]byte("not a gds stream at all"))
	f.Add([]byte{})
	f.Add(openElementStream(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		lib, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successfully parsed library must re-serialize without panic.
		var buf bytes.Buffer
		_ = lib.Write(&buf)
	})
}

// FuzzRecordReader exercises the record layer alone.
func FuzzRecordReader(f *testing.F) {
	f.Add([]byte{0x00, 0x04, 0x04, 0x00})
	f.Add([]byte{0xFF, 0xFF, 0x10, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		rr := NewRecordReader(bytes.NewReader(data))
		for i := 0; i < 1000; i++ {
			rec, err := rr.Next()
			if err != nil {
				return
			}
			// Decoders must not panic regardless of declared data type.
			_, _ = rec.Int16s()
			_, _ = rec.Int32s()
			_, _ = rec.Reals()
			_, _ = rec.ASCII()
		}
	})
}
