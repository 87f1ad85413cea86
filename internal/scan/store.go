package scan

import (
	"bufio"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"

	"hotspot/internal/clip"
	"hotspot/internal/geom"
)

// The tile result store: a persistent, content-addressed cache of
// evaluated tile verdicts, keyed by a fingerprint of everything a tile's
// candidates are a pure function of. It is what makes incremental
// re-scans cheap: a re-scan after a small edit re-fingerprints every
// tile, hits the store for the unchanged ones, and evaluates only the
// dirty ones — with a final report byte-identical to a cold scan.
//
// The purity contract the key encodes (the same invariant that makes
// distributed shard dispatch sound): a tile's candidates depend only on
//
//   - the full extents of the geometry rectangles intersecting the
//     tile's halo-expanded window (never clipped — dissection anchors
//     derive from each rectangle's true extent),
//   - the scan geometry and filters (clip spec, layer, requirements),
//     and
//   - the model that classifies the clips.
//
// The first item is hashed per tile by TileKey, with every coordinate
// taken relative to the snap-dedup grid origin (Requirements.SnapBase),
// so a rigid translation of the whole chip — which shifts tiles, halo
// geometry, and snap base together — re-hits every entry. The second
// and third are folded into one model/config digest stamped in the store
// header (see core.Detector.ModelDigest): any mismatch invalidates the
// whole file, because a changed model can flip any tile's verdicts.
//
// On disk the store is an append-only line journal: a JSON header line
// carrying the format version and model digest, then one line per tile
// keyed by its fingerprint, candidates stored in snap-base-relative
// coordinates in a compact varint record (see appendEntryLine) that
// loading decodes by hand. Each line is flushed as its tile finishes, so
// the store is also how an interrupted scan resumes: re-running against
// it serves the finished tiles and evaluates only the rest. Torn trailing
// writes (a killed scan) are tolerated by self-healing on the next append
// — a newline is written first, so the torn fragment becomes an
// undecodable line that loading skips — rather than by truncation, which
// keeps the file safe to copy or read while a writer is live.

// storeVersion is bumped whenever the store line format or the key
// derivation changes; a version mismatch invalidates the whole file,
// exactly like a digest mismatch.
//
// Version history:
//
//	1: JSON entry lines.
//	2: base64 varint entry records (appendEntryLine).
const storeVersion = 2

// storeHeader is the store's first line: enough identity to refuse
// serving results produced by a different model or format.
type storeHeader struct {
	Version int    `json:"v"`
	Digest  string `json:"digest"`
}

// StoreStats is a point-in-time summary of a Store, reported alongside
// scan statistics and in the hotspotd /v1/scan response.
type StoreStats struct {
	// Entries is the number of cached tile results currently loaded.
	Entries int `json:"entries"`
	// Bytes is the store file's size on disk.
	Bytes int64 `json:"bytes"`
	// Hits and Misses count Get outcomes since the store was opened.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Invalidated reports that opening the store discarded a previous
	// file because its version or model digest did not match.
	Invalidated bool `json:"invalidated,omitempty"`
}

// Store is the persistent content-addressed tile result store. It is an
// append-only line journal with an in-memory index, safe for concurrent
// Get/Put from every scan worker. Entries accumulate across scans of
// the same model: a re-scan Puts only the tiles it had to evaluate, so
// the file grows with the edit churn, not with the scan count. Duplicate
// keys are harmless (last write wins on load; both map to identical
// candidates by construction).
type Store struct {
	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	path    string
	entries map[string][]Candidate
	bytes   int64
	hits    int64
	misses  int64
	// healTear marks that the file ends mid-line (a torn write from a
	// killed scan); the first append writes a newline first so the torn
	// fragment becomes a skippable undecodable line.
	healTear    bool
	invalidated bool
}

// OpenStore opens (or creates) the tile result store at path for a model
// with the given digest. With reuse set, an existing file with a
// matching header is loaded and its entries served; a version or digest
// mismatch — or an unreadable header — discards the file and starts
// fresh (full invalidation: a different model can flip any verdict).
// Without reuse the file is always recreated, which is how a caller
// forces a cold scan that rebuilds the store.
func OpenStore(path, digest string, reuse bool) (*Store, error) {
	st := &Store{path: path, entries: map[string][]Candidate{}}
	if reuse {
		if err := st.load(path, digest); err != nil {
			return nil, err
		}
	}
	if fresh := len(st.entries) == 0 && !st.healTear; fresh {
		// A fresh store (first open, forced rebuild, or invalidation) is
		// written beside the old file and renamed over it, never truncated
		// in place: a process still appending to the old store (a live
		// scan across a hot model reload) keeps writing its soon-discarded
		// inode instead of corrupting the new file, and a concurrent
		// reader sees either the complete old file or the new one.
		tmp := path + ".tmp"
		f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, fmt.Errorf("scan: creating store: %w", err)
		}
		st.f = f
		st.w = bufio.NewWriter(f)
		st.bytes = 0
		hdr, err := json.Marshal(storeHeader{Version: storeVersion, Digest: digest})
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("scan: encoding store header: %w", err)
		}
		if err := st.write(append(hdr, '\n')); err != nil {
			f.Close()
			return nil, err
		}
		if err := os.Rename(tmp, path); err != nil {
			f.Close()
			return nil, fmt.Errorf("scan: installing store: %w", err)
		}
		return st, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("scan: opening store: %w", err)
	}
	st.f = f
	st.w = bufio.NewWriter(f)
	return st, nil
}

// load reads an existing store file. It never truncates: undecodable
// lines (torn writes that a later append healed past) are skipped, and a
// torn tail is recorded so the first append heals it. A missing file is
// not an error; an incompatible header marks the store invalidated so
// OpenStore recreates the file.
func (st *Store) load(path, digest string) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("scan: opening store: %w", err)
	}
	defer f.Close()

	r := bufio.NewReader(f)
	line, err := readLine(r)
	if err != nil {
		return fmt.Errorf("scan: reading store: %w", err)
	}
	var hdr storeHeader
	if !terminated(line) || json.Unmarshal(line, &hdr) != nil || hdr.Version != storeVersion || hdr.Digest != digest {
		st.invalidated = len(line) > 0 // an empty file is fresh, not invalidated
		return nil
	}
	st.bytes = int64(len(line))
	var dec entryDecoder
	for {
		line, err := readLine(r)
		if err != nil {
			return fmt.Errorf("scan: reading store: %w", err)
		}
		if len(line) == 0 {
			break // clean EOF
		}
		st.bytes += int64(len(line))
		key, cands, ok := dec.decode(line)
		if !ok {
			// Undecodable: either a healed torn write mid-file (skip and
			// keep reading) or the torn tail itself (no newline; the read
			// after it returns nothing and the loop ends).
			st.healTear = true
			continue
		}
		st.healTear = false
		st.entries[key] = cands
	}
	return nil
}

// readLine reads one line of r, its newline included; a torn tail comes
// back without one, and the end of the stream as an empty line.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadBytes('\n')
	if errors.Is(err, io.EOF) {
		err = nil
	}
	return line, err
}

// terminated reports whether line ends with its newline: a line without
// one is a torn write.
func terminated(line []byte) bool {
	return len(line) > 0 && line[len(line)-1] == '\n'
}

// Get returns the cached candidates for key (in snap-base-relative
// coordinates; see RelocateCandidates) and whether the store holds them.
func (st *Store) Get(key string) ([]Candidate, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	cands, ok := st.entries[key]
	if ok {
		st.hits++
	} else {
		st.misses++
	}
	return cands, ok
}

// Put journals one evaluated tile under its content key and flushes it
// to the OS, so the entry survives the process being killed. cands must
// already be snap-base-relative.
func (st *Store) Put(key string, cands []Candidate) error {
	if cands == nil {
		cands = []Candidate{} // an empty tile is a result, not an omission
	}
	line := appendEntryLine(nil, key, cands)
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.write(line); err != nil {
		return err
	}
	st.entries[key] = cands
	return nil
}

// write appends one newline-terminated line and flushes it. The caller
// holds st.mu, or owns st alone.
func (st *Store) write(line []byte) error {
	if st.healTear {
		// Heal a torn tail by terminating it, never by truncating: a
		// concurrent reader (or a file copy in flight) sees the same
		// bytes it would have seen before the heal, plus complete lines.
		if _, err := st.w.Write([]byte{'\n'}); err != nil {
			return fmt.Errorf("scan: healing store tail: %w", err)
		}
		st.bytes++
		st.healTear = false
	}
	if _, err := st.w.Write(line); err != nil {
		return fmt.Errorf("scan: writing store: %w", err)
	}
	if err := st.w.Flush(); err != nil {
		return fmt.Errorf("scan: flushing store: %w", err)
	}
	st.bytes += int64(len(line))
	return nil
}

// An entry line is the StdEncoding base64 of one varint record, then a
// newline:
//
//	uvarint len(key), key bytes
//	uvarint T, then T times: uvarint len(topo), topo bytes
//	uvarint N, then N candidates, each:
//	    varint At.X, At.Y, Key.Cell.X, Key.Cell.Y (zig-zag)
//	    uvarint topoIdx<<2 | flagged<<1 | reclaimed
//
// The T topology strings are the entry's distinct Key.Topo values in
// order of first use; topoIdx indexes them.

// minCandBytes is the shortest encoded candidate: five one-byte varints.
const minCandBytes = 5

// appendEntryLine appends the entry line of (key, cands) to dst.
func appendEntryLine(dst []byte, key string, cands []Candidate) []byte {
	rec := binary.AppendUvarint(nil, uint64(len(key)))
	rec = append(rec, key...)
	var topos []string
	index := map[string]uint64{}
	for _, c := range cands {
		if _, ok := index[c.Key.Topo]; !ok {
			index[c.Key.Topo] = uint64(len(topos))
			topos = append(topos, c.Key.Topo)
		}
	}
	rec = binary.AppendUvarint(rec, uint64(len(topos)))
	for _, t := range topos {
		rec = binary.AppendUvarint(rec, uint64(len(t)))
		rec = append(rec, t...)
	}
	rec = binary.AppendUvarint(rec, uint64(len(cands)))
	for _, c := range cands {
		rec = binary.AppendVarint(rec, int64(c.At.X))
		rec = binary.AppendVarint(rec, int64(c.At.Y))
		rec = binary.AppendVarint(rec, int64(c.Key.Cell.X))
		rec = binary.AppendVarint(rec, int64(c.Key.Cell.Y))
		flags := index[c.Key.Topo] << 2
		if c.Flagged {
			flags |= 2
		}
		if c.Reclaimed {
			flags |= 1
		}
		rec = binary.AppendUvarint(rec, flags)
	}
	dst = base64.StdEncoding.AppendEncode(dst, rec)
	return append(dst, '\n')
}

// entryDecoder decodes the entry lines of one load. It reuses one record
// buffer across lines and interns topology strings across the load, so
// the many candidates sharing a topology share one string.
type entryDecoder struct {
	rec   []byte
	topos []string
	seen  map[string]string
}

// decode parses one entry line, its newline included. ok is false for a
// line that is torn (no newline) or undecodable: bad base64, a count or
// length beyond the bytes that remain, a topology index out of range, a
// coordinate outside int32, or bytes after the last candidate. Every
// count is checked against the remaining bytes before anything is
// allocated for it, so no line allocates more than a small multiple of
// its own length.
func (d *entryDecoder) decode(line []byte) (key string, cands []Candidate, ok bool) {
	if !terminated(line) {
		return "", nil, false
	}
	rec, err := base64.StdEncoding.AppendDecode(d.rec[:0], line[:len(line)-1])
	d.rec = rec
	if err != nil {
		return "", nil, false
	}
	r := recordReader{b: rec}
	keyBytes := r.bytes()
	nt := r.count(1)
	topos := d.topos[:0]
	for i := uint64(0); i < nt && !r.bad; i++ {
		topos = append(topos, d.intern(r.bytes()))
	}
	d.topos = topos
	nc := r.count(minCandBytes)
	if r.bad {
		return "", nil, false
	}
	cands = make([]Candidate, nc)
	for i := range cands {
		c := &cands[i]
		c.At = geom.Point{X: r.coord(), Y: r.coord()}
		cell := geom.Point{X: r.coord(), Y: r.coord()}
		flags := r.uvarint()
		if idx := flags >> 2; idx < uint64(len(topos)) {
			c.Key = clip.Key{Cell: cell, Topo: topos[idx]}
		} else {
			r.bad = true
		}
		c.Flagged = flags&2 != 0
		c.Reclaimed = flags&1 != 0
		if r.bad {
			return "", nil, false
		}
	}
	if len(r.b) != 0 {
		return "", nil, false
	}
	return string(keyBytes), cands, true
}

// intern returns b as a string, one string per distinct value per load.
func (d *entryDecoder) intern(b []byte) string {
	if s, ok := d.seen[string(b)]; ok {
		return s
	}
	if d.seen == nil {
		d.seen = map[string]string{}
	}
	s := string(b)
	d.seen[s] = s
	return s
}

// recordReader reads the varints of one entry record. The first failure
// sets bad, and every later read then returns zero.
type recordReader struct {
	b   []byte
	bad bool
}

func (r *recordReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads a count of items that take at least size bytes each, and
// fails when the remaining bytes cannot hold that many.
func (r *recordReader) count(size int) uint64 {
	n := r.uvarint()
	if n > uint64(len(r.b)/size) {
		r.fail()
		return 0
	}
	return n
}

// bytes reads a length-prefixed byte string, aliasing the record.
func (r *recordReader) bytes() []byte {
	n := r.count(1)
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

// coord reads a zig-zag varint that must fit a geom.Coord.
func (r *recordReader) coord() geom.Coord {
	v, n := binary.Varint(r.b)
	if n <= 0 || v < math.MinInt32 || v > math.MaxInt32 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return geom.Coord(v)
}

func (r *recordReader) fail() {
	r.bad = true
	r.b = nil
}

// Stats summarizes the store.
func (st *Store) Stats() StoreStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return StoreStats{
		Entries:     len(st.entries),
		Bytes:       st.bytes,
		Hits:        st.hits,
		Misses:      st.misses,
		Invalidated: st.invalidated,
	}
}

// Path returns the store's file path.
func (st *Store) Path() string { return st.path }

// Close flushes and closes the store file. Safe after partial writes:
// every Put already flushed its own line.
func (st *Store) Close() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.w.Flush() //nolint:errcheck // best effort: every Put already flushed
	st.f.Close() //nolint:errcheck
}

// TileKey fingerprints one tile's evaluation inputs: the tile rectangle
// and the full extents of every geometry rectangle intersecting its
// halo-expanded window, all taken relative to base (the snap-dedup grid
// origin, Requirements.SnapBase). Relative coordinates make the key
// translation-equivariant: rigidly shifting the chip shifts tiles,
// geometry, and snap base together, so every key — and every cached
// verdict — survives. rects is sorted in place (by low then high
// corner) so query order never perturbs the key.
func TileKey(tile geom.Rect, rects []geom.Rect, base geom.Point) string {
	return contentKey("tile", tile, rects, base, 0)
}

// ShardKey fingerprints one shard window's evaluation inputs for the
// distributed coordinator's shard-granularity cache: the window, its
// halo geometry (both snap-base-relative, like TileKey), and the tile
// side the shard is cut into — per-shard candidate sets are already
// seam-deduplicated within the window, so the tiling is part of their
// identity. rects is sorted in place.
func ShardKey(window geom.Rect, rects []geom.Rect, base geom.Point, tile geom.Coord) string {
	return contentKey("shard", window, rects, base, tile)
}

func contentKey(kind string, region geom.Rect, rects []geom.Rect, base geom.Point, tile geom.Coord) string {
	sort.Slice(rects, func(i, j int) bool {
		a, b := rects[i], rects[j]
		if a.Y0 != b.Y0 {
			return a.Y0 < b.Y0
		}
		if a.X0 != b.X0 {
			return a.X0 < b.X0
		}
		if a.Y1 != b.Y1 {
			return a.Y1 < b.Y1
		}
		return a.X1 < b.X1
	})
	h := sha256.New()
	var buf [4]byte
	put := func(v geom.Coord) {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		h.Write(buf[:])
	}
	putRect := func(r geom.Rect) {
		r = r.Translate(-base.X, -base.Y)
		put(r.X0)
		put(r.Y0)
		put(r.X1)
		put(r.Y1)
	}
	h.Write([]byte(kind))
	put(tile)
	putRect(region)
	put(geom.Coord(len(rects)))
	for _, r := range rects {
		putRect(r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// RelocateCandidates translates candidate anchors by (dx, dy): the store
// holds snap-base-relative candidates, so Put callers relocate by
// (-base.X, -base.Y) and Get callers by (+base.X, +base.Y). moveCell
// translates Key.Cell too — required exactly when snap-grid dedup is
// disabled (Requirements.SnapGrid <= 0), where the cell is the absolute
// anchor itself; with the grid enabled the cell is already
// snap-base-relative and must not move.
func RelocateCandidates(cands []Candidate, dx, dy geom.Coord, moveCell bool) []Candidate {
	if len(cands) == 0 || (dx == 0 && dy == 0) {
		return cands
	}
	out := make([]Candidate, len(cands))
	for i, c := range cands {
		c.At.X += dx
		c.At.Y += dy
		if moveCell {
			c.Key.Cell.X += dx
			c.Key.Cell.Y += dy
		}
		out[i] = c
	}
	return out
}
