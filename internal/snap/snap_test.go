package snap

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

// roundTrip encodes one of every primitive and decodes it back.
func TestRoundTripAllPrimitives(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, "test", 7)
	w.U64(0)
	w.U64(math.MaxUint64)
	w.I64(-1)
	w.I64(math.MinInt64)
	w.Int(42)
	w.Bool(true)
	w.Bool(false)
	w.F64(math.Pi)
	w.F64(math.Inf(-1))
	w.U64Fixed(0xdeadbeefcafef00d)
	w.Bytes([]byte("payload"))
	w.Bytes(nil)
	w.String("schedule")
	w.I64s([]int64{-3, 0, 9})
	w.I32s([]int32{1, -2})
	w.Ints([]int{7, 8, 9})
	w.Bools([]bool{true, false, true})
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()), "test")
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if r.Algo() != "test" || r.Version() != 7 {
		t.Fatalf("header: algo=%q ver=%d", r.Algo(), r.Version())
	}
	if got := r.U64(); got != 0 {
		t.Errorf("U64: %d", got)
	}
	if got := r.U64(); got != math.MaxUint64 {
		t.Errorf("U64 max: %d", got)
	}
	if got := r.I64(); got != -1 {
		t.Errorf("I64: %d", got)
	}
	if got := r.I64(); got != math.MinInt64 {
		t.Errorf("I64 min: %d", got)
	}
	if got := r.Int(); got != 42 {
		t.Errorf("Int: %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool sequence wrong")
	}
	if got := r.F64(); got != math.Pi {
		t.Errorf("F64: %v", got)
	}
	if got := r.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 -inf: %v", got)
	}
	if got := r.U64Fixed(); got != 0xdeadbeefcafef00d {
		t.Errorf("U64Fixed: %#x", got)
	}
	if got := r.Bytes(); string(got) != "payload" {
		t.Errorf("Bytes: %q", got)
	}
	if got := r.Bytes(); len(got) != 0 {
		t.Errorf("nil Bytes: %q", got)
	}
	if got := r.StringV(); got != "schedule" {
		t.Errorf("StringV: %q", got)
	}
	if got := r.I64s(); len(got) != 3 || got[0] != -3 || got[2] != 9 {
		t.Errorf("I64s: %v", got)
	}
	if got := r.I32s(); len(got) != 2 || got[1] != -2 {
		t.Errorf("I32s: %v", got)
	}
	if got := r.Ints(); len(got) != 3 || got[2] != 9 {
		t.Errorf("Ints: %v", got)
	}
	if got := r.Bools(); len(got) != 3 || !got[0] || got[1] || !got[2] {
		t.Errorf("Bools: %v", got)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("reader Close: %v", err)
	}
}

func encode(t *testing.T, algo string, ver uint64, fill func(*Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, algo, ver)
	fill(w)
	if err := w.Close(); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

func TestAlgoTagMismatch(t *testing.T) {
	b := encode(t, "kk", 1, func(w *Writer) { w.Int(5) })
	_, err := NewReader(bytes.NewReader(b), "alg1")
	if !errors.Is(err, ErrMismatch) {
		t.Fatalf("want ErrMismatch, got %v", err)
	}
}

func TestCorruptPayloadFailsChecksum(t *testing.T) {
	b := encode(t, "kk", 1, func(w *Writer) { w.Ints([]int{1, 2, 3}) })
	// Flip one payload byte (not in the trailer).
	b2 := bytes.Clone(b)
	b2[len(b2)-6] ^= 0x40
	r, err := NewReader(bytes.NewReader(b2), "kk")
	if err != nil {
		// Acceptable: corruption hit the header.
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrMismatch) {
			t.Fatalf("header error not typed: %v", err)
		}
		return
	}
	r.Ints()
	if err := r.Close(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt from checksum, got %v", err)
	}
}

func TestTruncatedSnapshot(t *testing.T) {
	b := encode(t, "kk", 1, func(w *Writer) { w.Bytes(make([]byte, 64)) })
	for _, cut := range []int{4, len(b) / 2, len(b) - 2} {
		r, err := NewReader(bytes.NewReader(b[:cut]), "kk")
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut=%d: header error not typed: %v", cut, err)
			}
			continue
		}
		r.Bytes()
		err = r.Close()
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut=%d: want ErrTruncated/ErrCorrupt, got %v", cut, err)
		}
	}
}

func TestReaderIsSelfDelimiting(t *testing.T) {
	// Two snapshots back to back on one reader: the first decode must not
	// consume a single byte of the second — that property is what makes
	// nested snapshots (ensemble members through Raw) work.
	var buf bytes.Buffer
	w1 := NewWriter(&buf, "a", 1)
	w1.Ints([]int{10, 20})
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := NewWriter(&buf, "b", 2)
	w2.String("second")
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	src := bytes.NewReader(buf.Bytes())
	r1, err := NewReader(src, "a")
	if err != nil {
		t.Fatal(err)
	}
	if got := r1.Ints(); len(got) != 2 || got[1] != 20 {
		t.Fatalf("first: %v", got)
	}
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := NewReader(src, "b")
	if err != nil {
		t.Fatalf("second snapshot unreadable (first over-read): %v", err)
	}
	if got := r2.StringV(); got != "second" {
		t.Fatalf("second: %q", got)
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	if src.Len() != 0 {
		t.Fatalf("%d trailing bytes unread", src.Len())
	}
}

func TestHugeLengthRejectedWithoutAllocating(t *testing.T) {
	// Hand-craft a snapshot whose Bytes length claims 2^40: the reader must
	// reject it as corrupt instead of attempting the allocation.
	var buf bytes.Buffer
	w := NewWriter(&buf, "x", 1)
	w.U64(1 << 40) // poses as a Bytes length prefix
	_ = w.Close()
	r, err := NewReader(bytes.NewReader(buf.Bytes()), "x")
	if err != nil {
		t.Fatal(err)
	}
	r.Bytes()
	if err := r.Err(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for huge length, got %v", err)
	}
}

func TestStickyErrorShortCircuits(t *testing.T) {
	r, err := NewReader(bytes.NewReader(encode(t, "x", 1, func(w *Writer) { w.Int(1) })), "x")
	if err != nil {
		t.Fatal(err)
	}
	r.Fail(io.ErrClosedPipe)
	if got := r.Int(); got != 0 {
		t.Fatalf("read after Fail returned %d, want zero value", got)
	}
	if got := r.Bools(); got != nil {
		t.Fatalf("slice read after Fail returned %v", got)
	}
	if !errors.Is(r.Close(), io.ErrClosedPipe) {
		t.Fatal("first error not sticky")
	}
}

// TestWriterErrorPropagation: a Writer writes its sink once, at Close, so the
// sink's error comes back from Close and then stays latched.
func TestWriterErrorPropagation(t *testing.T) {
	w := NewWriter(failWriter{}, "x", 1)
	w.Int(3)
	if err := w.Close(); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("Close returned %v, want the sink's error", err)
	}
	if !errors.Is(w.Err(), io.ErrShortWrite) || !errors.Is(w.Close(), io.ErrShortWrite) {
		t.Fatal("the sink's error is not sticky")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, io.ErrShortWrite }

func TestVersionRoundTrips(t *testing.T) {
	b := encode(t, "kk", 3, func(w *Writer) {})
	r, err := NewReader(bytes.NewReader(b), "kk")
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != 3 {
		t.Fatalf("version %d, want 3", r.Version())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestI32sIntoLengthMismatch(t *testing.T) {
	b := encode(t, "x", 1, func(w *Writer) { w.I32s([]int32{1, 2, 3}) })
	r, err := NewReader(bytes.NewReader(b), "x")
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int32, 2)
	r.I32sInto(dst)
	if err := r.Err(); !errors.Is(err, ErrMismatch) {
		t.Fatalf("want ErrMismatch for wrong destination length, got %v", err)
	}
}

func TestBoolsIntoLengthMismatch(t *testing.T) {
	b := encode(t, "x", 1, func(w *Writer) { w.Bools([]bool{true}) })
	r, err := NewReader(bytes.NewReader(b), "x")
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]bool, 4)
	r.BoolsInto(dst)
	if err := r.Err(); !errors.Is(err, ErrMismatch) {
		t.Fatalf("want ErrMismatch, got %v", err)
	}
}

// varintEdges are values at every zigzag varint width boundary the bulk
// decoder's one- and two-byte fast paths and its general path meet.
var varintEdges = []int32{0, -1, 1, 63, -64, 64, -65, 8191, -8192, 8192, -8193, 1 << 20, math.MaxInt32, math.MinInt32}

func TestBulkVarintsAtEveryWidth(t *testing.T) {
	wide := make([]int64, len(varintEdges))
	ints := make([]int, len(varintEdges))
	for i, v := range varintEdges {
		wide[i], ints[i] = int64(v)<<20, int(v)
	}
	b := encode(t, "x", 1, func(w *Writer) {
		w.I32s(varintEdges)
		w.I32s(varintEdges)
		w.I64s(wide)
		w.Ints(ints)
		for _, v := range varintEdges {
			w.I64(int64(v)) // no prefix: FillI32s's layout
		}
	})
	r, err := NewReader(bytes.NewReader(b), "x")
	if err != nil {
		t.Fatal(err)
	}
	got := r.I32s()
	into := make([]int32, len(varintEdges))
	r.I32sInto(into)
	gotWide, gotInts := r.I64s(), r.Ints()
	fill := make([]int32, len(varintEdges))
	r.FillI32s(fill)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for i, v := range varintEdges {
		if got[i] != v || into[i] != v || fill[i] != v || gotWide[i] != wide[i] || gotInts[i] != ints[i] {
			t.Fatalf("element %d (%d): I32s %d, I32sInto %d, FillI32s %d, I64s %d, Ints %d",
				i, v, got[i], into[i], fill[i], gotWide[i], gotInts[i])
		}
	}
}

func TestBulkVarintFailuresAreTyped(t *testing.T) {
	// A two-byte varint cut after its first byte: the data ends mid-value.
	b := encode(t, "x", 1, func(w *Writer) { w.I32s([]int32{1, 200}) })
	cut := bytes.Index(b, []byte{2, 2, 0x90}) + 3 // length 2, zigzag(1), first byte of zigzag(200)
	r, err := NewReader(bytes.NewReader(b[:cut]), "x")
	if err != nil {
		t.Fatal(err)
	}
	r.I32sInto(make([]int32, 2))
	if err := r.Err(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("value cut mid-varint: want ErrTruncated, got %v", err)
	}

	// A value that does not fit the destination's int32.
	b = encode(t, "x", 1, func(w *Writer) { w.I64s([]int64{1, 1 << 40}) })
	r, err = NewReader(bytes.NewReader(b), "x")
	if err != nil {
		t.Fatal(err)
	}
	r.I32sInto(make([]int32, 2))
	if err := r.Err(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("int32 overflow: want ErrCorrupt, got %v", err)
	}

	// A slice length the bytes left cannot hold fails before allocating.
	b = encode(t, "x", 1, func(w *Writer) { w.U64(1000) })
	r, err = NewReader(bytes.NewReader(b), "x")
	if err != nil {
		t.Fatal(err)
	}
	if v := r.I64s(); v != nil || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("length beyond the data: got %v, err %v", v, r.Err())
	}
}

// TestNestedContainersShareOneSlice nests two containers and raw bytes in a
// parent through Raw, reads them back in place from a *bytes.Buffer, and
// checks the buffer is advanced by exactly the parent container.
func TestNestedContainersShareOneSlice(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, "outer", 1)
	w.Int(2)
	for i := 0; i < 2; i++ {
		c := NewWriter(w.Raw(), "inner", 1)
		c.Ints([]int{i, 100 * i})
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Raw().Write([]byte("raw")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("next")

	r, err := NewReader(&buf, "outer")
	if err != nil {
		t.Fatal(err)
	}
	if k := r.Int(); k != 2 {
		t.Fatalf("copies %d", k)
	}
	for i := 0; i < 2; i++ {
		c, err := NewReader(r.Raw(), "inner")
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Ints(); len(got) != 2 || got[1] != 100*i {
			t.Fatalf("inner %d: %v", i, got)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("inner %d: %v", i, err)
		}
	}
	raw := make([]byte, 3)
	if _, err := io.ReadFull(r.Raw(), raw); err != nil || string(raw) != "raw" {
		t.Fatalf("raw bytes %q, err %v", raw, err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "next" {
		t.Fatalf("source left at %q, want exactly the bytes after the container", buf.String())
	}
}
