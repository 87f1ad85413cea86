package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// cpuByLabel sums a gzipped runtime/pprof CPU profile's CPU time in
// seconds by the value of one sample label; unlabelled samples sum under
// "". It decodes only the fields it needs of the profile.proto message
// (string_table, sample.value, sample.label), so the benchmark needs no
// module outside the standard library.
func cpuByLabel(profile []byte, key string) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		values []int64
		labels [][2]int64 // string-table indices of key and value
	}
	var strs []string
	var samples []sample
	err = walkFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Profile.sample
			var s sample
			err := walkFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 2: // Sample.value, packed or not
					if b == nil {
						s.values = append(s.values, int64(v))
						return nil
					}
					for len(b) > 0 {
						x, n := binary.Uvarint(b)
						if n <= 0 {
							return errors.New("bad packed value")
						}
						s.values = append(s.values, int64(x))
						b = b[n:]
					}
				case 3: // Sample.label
					var kv [2]int64
					err := walkFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = int64(v)
						}
						return nil
					})
					if err != nil {
						return err
					}
					s.labels = append(s.labels, kv)
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	out := map[string]float64{}
	for _, s := range samples {
		// A CPU profile's values are [samples/count, cpu/nanoseconds].
		if len(s.values) < 2 {
			continue
		}
		label := ""
		for _, kv := range s.labels {
			if str(kv[0]) == key {
				label = str(kv[1])
			}
		}
		out[label] += float64(s.values[1]) / 1e9
	}
	return out, nil
}

// walkFields calls f for each field of one protobuf message: varints
// arrive in v with b nil, length-delimited fields in b. Fixed-width fields
// are skipped.
func walkFields(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		tag, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad tag")
		}
		msg = msg[n:]
		num, wire := int(tag>>3), tag&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := f(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("wire type %d", wire)
		}
	}
	return nil
}
