package dense

import (
	"bytes"
	"testing"

	"streamcover/internal/snap"
)

func TestBits(t *testing.T) {
	b := NewBits(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d", b.Len())
	}
	for _, i := range []int32{0, 63, 64, 65, 129} {
		if b.Test(i) {
			t.Fatalf("bit %d set on fresh bitset", i)
		}
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if b.Count() != 5 {
		t.Fatalf("Count = %d, want 5", b.Count())
	}
	var got []int32
	b.ForEach(func(i int32) { got = append(got, i) })
	want := []int32{0, 63, 64, 65, 129}
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach visited %v, want %v (ascending)", got, want)
		}
	}
	bools := b.AppendBools(nil)
	if len(bools) != 130 || !bools[64] || bools[66] {
		t.Fatalf("AppendBools wrong: len=%d", len(bools))
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatalf("Count after Reset = %d", b.Count())
	}
}

func TestStampedSet(t *testing.T) {
	s := NewStampedSet(10)
	if !s.Add(3) || s.Add(3) {
		t.Fatal("Add(3) twice should report true then false")
	}
	s.Add(7)
	if s.Len() != 2 || !s.Has(3) || !s.Has(7) || s.Has(4) {
		t.Fatalf("membership wrong: len=%d", s.Len())
	}
	s.Clear()
	if s.Len() != 0 || s.Has(3) {
		t.Fatal("Clear did not empty the set")
	}
	if !s.Add(3) {
		t.Fatal("Add after Clear should report newly added")
	}

	o := NewStampedSet(10)
	o.Add(9)
	s.Swap(&o)
	if !s.Has(9) || s.Has(3) || !o.Has(3) {
		t.Fatal("Swap did not exchange contents")
	}
}

func TestStampedSetGenerationWrap(t *testing.T) {
	s := NewStampedSet(4)
	s.Add(1)
	s.gen = ^uint32(0) // force the next Clear to wrap
	s.Clear()
	if s.gen != 1 {
		t.Fatalf("gen after wrap = %d, want 1", s.gen)
	}
	if s.Has(1) {
		t.Fatal("stale stamp survived generation wrap")
	}
}

func TestCounts(t *testing.T) {
	c := NewCounts(8)
	if v, first := c.Inc(5); v != 1 || !first {
		t.Fatalf("first Inc = (%d,%v)", v, first)
	}
	if v, first := c.Inc(5); v != 2 || first {
		t.Fatalf("second Inc = (%d,%v)", v, first)
	}
	c.Inc(2)
	if c.Get(5) != 2 || c.Get(2) != 1 || c.Get(0) != 0 {
		t.Fatal("Get wrong")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	var sum int32
	c.ForEach(func(i, count int32) { sum += count })
	if sum != 3 {
		t.Fatalf("ForEach sum = %d, want 3", sum)
	}
	c.Clear()
	if c.Len() != 0 || c.Get(5) != 0 {
		t.Fatal("Clear did not zero the table")
	}
	if v, first := c.Inc(5); v != 1 || !first {
		t.Fatalf("Inc after Clear = (%d,%v)", v, first)
	}
}

func TestCountsGenerationWrap(t *testing.T) {
	c := NewCounts(4)
	c.Inc(1)
	c.gen = ^uint32(0)
	c.Clear()
	if c.Get(1) != 0 {
		t.Fatal("stale count survived generation wrap")
	}
}

// TestStampedSetLoadAllocatesNothing: an Algorithm 1 resume loads Q̃ and Q̃'
// through StampedSet.Load, which must decode on the stack. Loading a saved
// set allocates exactly what a reader making the same reads into a
// caller's slice does.
func TestStampedSetLoadAllocatesNothing(t *testing.T) {
	const n = 2000
	s := NewStampedSet(n)
	for i := int32(0); i < n; i += 3 {
		s.Add(i)
	}
	var buf bytes.Buffer
	w := snap.NewWriter(&buf, "test", 1)
	s.Save(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	into := NewStampedSet(n)
	members := make([]int32, s.Len())
	load := testing.AllocsPerRun(20, func() {
		r, err := snap.NewReader(bytes.NewBuffer(blob), "test")
		if err != nil {
			t.Fatal(err)
		}
		into.Load(r)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	})
	read := testing.AllocsPerRun(20, func() {
		r, err := snap.NewReader(bytes.NewBuffer(blob), "test")
		if err != nil {
			t.Fatal(err)
		}
		r.Int()
		r.Int()
		r.FillI32s(members)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if load != read {
		t.Fatalf("NewReader+Load allocates %.0f times, the same reads without Load %.0f", load, read)
	}
	if into.Len() != s.Len() {
		t.Fatalf("loaded %d members, saved %d", into.Len(), s.Len())
	}
	for i := int32(0); i < n; i++ {
		if into.Has(i) != s.Has(i) {
			t.Fatalf("member %d: loaded %v, saved %v", i, into.Has(i), s.Has(i))
		}
	}
}
