package stream

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"streamcover/internal/setcover"
)

// FuzzDecode checks that Decode never panics and never returns structurally
// invalid data on arbitrary byte inputs, and that anything it accepts
// re-encodes to a file it accepts again.
func FuzzDecode(f *testing.F) {
	// Seed with a valid file and a few mutations.
	inst := setcover.MustNewInstance(5, [][]setcover.Element{{0, 1, 2}, {3, 4}})
	edges := EdgesOf(inst)
	var buf bytes.Buffer
	if err := Encode(&buf, Header{N: 5, M: 2, E: len(edges)}, edges); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("SCSTRM1\n"))
	mutated := append([]byte(nil), valid...)
	mutated[10] ^= 0xff
	f.Add(mutated)
	f.Add(shortClaimFile(1 << 24))

	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, decoded, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input: structure must be internally consistent.
		if hdr.N <= 0 || hdr.M <= 0 || hdr.E != len(decoded) {
			t.Fatalf("accepted inconsistent header %+v with %d edges", hdr, len(decoded))
		}
		for _, e := range decoded {
			if e.Set < 0 || int(e.Set) >= hdr.M || e.Elem < 0 || int(e.Elem) >= hdr.N {
				t.Fatalf("accepted out-of-range edge %v", e)
			}
		}
		// Round trip: re-encoding must produce a decodable file with the
		// same content.
		var out bytes.Buffer
		if err := Encode(&out, hdr, decoded); err != nil {
			t.Fatalf("re-encode of accepted data failed: %v", err)
		}
		hdr2, decoded2, err := Decode(&out)
		if err != nil || hdr2 != hdr || len(decoded2) != len(decoded) {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}

// FuzzFile pushes arbitrary bytes through File at every test window and
// checks it against a direct in-memory Decode of the same bytes: when
// Decode accepts, every pass must yield the identical edge sequence with no
// error; when Decode rejects, the file must either fail at open or end
// every pass in a sticky error of the corruption family (never panic, hang,
// or silently truncate a pass it claims completed). Each window drains one
// pass with Next, one with NextBatch(5) after Reset, and one through Pass,
// which must return the pass's error itself; the later passes are verified
// passes, which skip the CRC, whenever the first was clean. Every pass at
// every window must agree on the edges and the error.
func FuzzFile(f *testing.F) {
	inst := setcover.MustNewInstance(5, [][]setcover.Element{{0, 1, 2}, {3, 4}})
	edges := EdgesOf(inst)
	var buf bytes.Buffer
	if err := Encode(&buf, Header{N: 5, M: 2, E: len(edges)}, edges); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("SCSTRM1\n"))
	mutated := append([]byte(nil), valid...)
	mutated[10] ^= 0xff
	f.Add(mutated)
	trailing := append(append([]byte(nil), valid...), 0)
	f.Add(trailing)
	// IDs of every varint width an int32 takes, over more bytes than the
	// 64-byte window holds.
	ids := []int32{5, 200, 20000, 3000000, 400000000}
	wide := make([]Edge, 40)
	for i := range wide {
		wide[i] = Edge{Set: setcover.SetID(ids[i%5]), Elem: setcover.Element(ids[i*3%5])}
	}
	buf.Reset()
	if err := Encode(&buf, Header{N: 1 << 30, M: 1 << 30, E: len(wide)}, wide); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, want, decodeErr := Decode(bytes.NewReader(data))

		path := filepath.Join(t.TempDir(), "fuzz.scstrm")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		var ref []Edge
		var refErr error
		for i, window := range testWindows {
			fs, err := openFile(path, window)
			if err != nil {
				if decodeErr == nil {
					t.Fatalf("open rejected a Decode-accepted file: %v", err)
				}
				return
			}
			defer fs.Close()
			for pass := 0; pass < 3; pass++ {
				var got []Edge
				var passErr error
				switch pass {
				case 0:
					for e, ok := fs.Next(); ok; e, ok = fs.Next() {
						got = append(got, e)
					}
					passErr = fs.Err()
				case 1:
					fs.Reset()
					for b := fs.NextBatch(5); len(b) > 0; b = fs.NextBatch(5) {
						got = append(got, b...)
					}
					passErr = fs.Err()
				case 2:
					passErr = Pass(fs, func(e Edge) error {
						got = append(got, e)
						return nil
					})
				}
				if i > 0 || pass > 0 {
					if !slices.Equal(got, ref) || fmt.Sprint(passErr) != fmt.Sprint(refErr) {
						t.Fatalf("window %d pass %d: %d edges, Err=%v; first pass: %d edges, Err=%v",
							window, pass, len(got), passErr, len(ref), refErr)
					}
					continue
				}
				ref, refErr = got, passErr
				if decodeErr == nil {
					if passErr != nil {
						t.Fatalf("pass failed on a Decode-accepted file: %v", passErr)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("File yielded %d edges, Decode %d (header %+v)", len(got), len(want), hdr)
					}
					continue
				}
				// Decode rejected the bytes but the file opened: the lazy
				// pass must report a sticky corruption-family error by its
				// end.
				if passErr == nil {
					t.Fatalf("Decode rejected (%v) but the pass completed cleanly with %d edges", decodeErr, len(got))
				}
				if !errors.Is(passErr, ErrCorrupt) && !errors.Is(passErr, ErrShortStream) {
					t.Fatalf("pass error %v is outside the corruption family", passErr)
				}
			}
		}
	})
}

// FuzzValidate checks that Validate never panics on arbitrary edge lists.
func FuzzValidate(f *testing.F) {
	f.Add(int16(3), int16(2), []byte{0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, nRaw, mRaw int16, raw []byte) {
		// Mask rather than mod: % keeps the sign on negative int16 inputs,
		// which would make the slice length below negative.
		n := int(nRaw&63) + 1
		m := int(mRaw&63) + 1
		sets := make([][]setcover.Element, m)
		inst, err := setcover.NewInstance(n, sets)
		if err != nil {
			return
		}
		edges := make([]Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			// The -1 shift puts negative IDs in the fuzzed domain alongside
			// in-range and past-the-end ones.
			edges = append(edges, Edge{
				Set:  setcover.SetID(int(raw[i])%(m+2) - 1),
				Elem: setcover.Element(int(raw[i+1])%(n+2) - 1),
			})
		}
		_ = Validate(inst, edges) // must not panic
	})
}
