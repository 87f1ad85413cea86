package scan

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenStore feeds arbitrary bytes to OpenStore as an existing store
// file. Whatever the bytes, opening must not panic; a store it returns
// must serve Get, accept a Put, and serve that entry after a reopen — the
// torn-tail heal and header invalidation must leave the file appendable.
func FuzzOpenStore(f *testing.F) {
	valid := "{\"v\":1,\"digest\":\"d\"}\n" +
		"{\"k\":\"a\",\"cands\":[{\"at\":{\"X\":1,\"Y\":2},\"key\":{\"Cell\":{\"X\":0,\"Y\":0},\"Topo\":\"t\"},\"flagged\":true}]}\n" +
		"{\"k\":\"b\",\"cands\":[]}\n"
	f.Add([]byte(valid))
	f.Add([]byte(valid[:len(valid)-9]))       // torn tail
	f.Add([]byte("\x00garbage header\n{}\n")) // garbage header
	f.Add([]byte{})                           // empty file

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
