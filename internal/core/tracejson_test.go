package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"testing"

	"streamcover/internal/stream"
	"streamcover/internal/workload"
	"streamcover/internal/xrand"
)

// fuzzBytes hands out values from fuzz data, zeros once it runs out.
type fuzzBytes struct{ b []byte }

func (f *fuzzBytes) u8() byte {
	if len(f.b) == 0 {
		return 0
	}
	c := f.b[0]
	f.b = f.b[1:]
	return c
}

func (f *fuzzBytes) i64() int64 {
	var w [8]byte
	f.b = f.b[copy(w[:], f.b):]
	return int64(binary.LittleEndian.Uint64(w[:]))
}

// sliceOf builds a nil, empty or short slice of elem values.
func sliceOf[T any](f *fuzzBytes, elem func() T) []T {
	switch f.u8() % 3 {
	case 0:
		return nil
	case 1:
		return []T{}
	}
	v := make([]T, 1+f.u8()%4)
	for i := range v {
		v[i] = elem()
	}
	return v
}

// traceFromBytes builds a Trace with every field driven by data: nil and
// empty slices at every nesting level, negative and extreme integers.
func traceFromBytes(data []byte) Trace {
	f := &fuzzBytes{data}
	i := func() int { return int(f.i64()) }
	i32 := func() int32 { return int32(f.i64()) }
	b := func() bool { return f.u8()&1 == 1 }
	return Trace{
		Specials:       sliceOf(f, func() []int { return sliceOf(f, i) }),
		AddedPerAlg:    sliceOf(f, i),
		AddedEpoch0:    i(),
		MarkedEpoch0:   i(),
		MarkedTracking: i(),
		Epoch0Edges:    i(),
		APhaseEdges:    i(),
		RemainderEdges: i(),
		Patched:        i(),
		Degenerate:     b(),
		TrackedPeak:    i(),
		SolAdditions: sliceOf(f, func() SolAddition {
			return SolAddition{Pos: i(), Set: i32(), Alg: i(), Epoch: i()}
		}),
		MarkedAtAEnd: sliceOf(f, b),
		SolAtAEnd:    sliceOf(f, i32),
		SpecialSets: sliceOf(f, func() [][]int32 {
			return sliceOf(f, func() []int32 { return sliceOf(f, i32) })
		}),
	}
}

// runTrace is the trace of a real Algorithm 1 run that got past its
// A-phase, so MarkedAtAEnd and SolAtAEnd are set.
func runTrace(tb testing.TB) Trace {
	tb.Helper()
	w := workload.Planted(xrand.New(3), 120, 600, 6, 0)
	edges := stream.Arrange(w.Inst, stream.Random, xrand.New(4))
	p := DefaultParams(120, 600)
	p.TraceSpecialSets = true
	a := New(120, 600, len(edges), p, xrand.New(5))
	for _, e := range edges[:len(edges)*9/10] {
		a.Process(e)
	}
	if a.trace.MarkedAtAEnd == nil {
		tb.Fatal("run did not finish its A-phase")
	}
	return a.trace
}

func marshalTrace(tb testing.TB, t Trace) []byte {
	tb.Helper()
	b, err := json.Marshal(&t)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// FuzzTraceDecode checks decodeTrace against encoding/json both ways:
// whatever it accepts, json.Unmarshal accepts as the same trace and
// json.Marshal writes back byte for byte; and every trace json.Marshal
// writes, it decodes to the original.
func FuzzTraceDecode(f *testing.F) {
	real := marshalTrace(f, runTrace(f))
	f.Add(real)
	f.Add(marshalTrace(f, Trace{}))
	f.Add(marshalTrace(f, traceFromBytes([]byte{2, 2, 2, 1, 0xff, 7})))
	f.Add(bytes.Replace(real, []byte(","), []byte(", "), 1))
	f.Add([]byte(`{"Specials":[[-0]]}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, err := decodeTrace(data); err == nil {
			var want Trace
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("decodeTrace accepted what json.Unmarshal rejects (%v): %q", err, data)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decodeTrace gave %+v, json.Unmarshal %+v", got, want)
			}
			if again := marshalTrace(t, got); !bytes.Equal(again, data) {
				t.Fatalf("accepted input does not re-marshal to itself:\n in  %q\n out %q", data, again)
			}
		}
		tr := traceFromBytes(data)
		enc := marshalTrace(t, tr)
		got, err := decodeTrace(enc)
		if err != nil {
			t.Fatalf("decodeTrace rejected json.Marshal output %q: %v", enc, err)
		}
		if !reflect.DeepEqual(got, tr) {
			t.Fatalf("round trip of %q gave %+v, want %+v", enc, got, tr)
		}
	})
}

// TestDecodeTraceRejectsOtherLayouts pins the narrowing against
// json.Unmarshal: valid JSON for a Trace that json.Marshal would not write
// is rejected.
func TestDecodeTraceRejectsOtherLayouts(t *testing.T) {
	real := marshalTrace(t, runTrace(t))
	zero := marshalTrace(t, Trace{})
	for name, in := range map[string][]byte{
		"whitespace":     bytes.Replace(real, []byte(":"), []byte(": "), 1),
		"trailing space": append(bytes.Clone(real), ' '),
		"reordered":      bytes.Replace(real, []byte(`{"Specials"`), []byte(`{"Patched":0,"Specials"`), 1),
		"minus zero":     bytes.Replace(zero, []byte(`"Patched":0`), []byte(`"Patched":-0`), 1),
		"leading zero":   bytes.Replace(zero, []byte(`"Patched":0`), []byte(`"Patched":00`), 1),
		"null trace":     []byte("null"),
		"empty object":   []byte("{}"),
	} {
		var u Trace
		if name != "leading zero" && json.Unmarshal(in, &u) != nil {
			t.Fatalf("%s: not valid for json.Unmarshal either", name)
		}
		if _, err := decodeTrace(in); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}
