package core

import (
	"errors"
	"math"
)

// errTraceJSON reports a trace section that is not exactly what
// json.Marshal writes for a Trace.
var errTraceJSON = errors.New("trace is not in json.Marshal's layout")

// decodeTrace parses the trace section of an alg1 snapshot without
// reflection. It accepts exactly the bytes json.Marshal writes for a Trace
// — the fields in declaration order, no whitespace, null for a nil slice
// and [] for an empty one, integers in shortest decimal form — and rejects
// everything else, so an accepted input decodes to the value json.Unmarshal
// gives and re-marshals to the same bytes (FuzzTraceDecode checks both).
func decodeTrace(b []byte) (Trace, error) {
	p := traceParser{b: b}
	var t Trace
	p.lit(`{"Specials":`)
	t.Specials = list(&p, func() []int { return list(&p, p.int) })
	p.lit(`,"AddedPerAlg":`)
	t.AddedPerAlg = list(&p, p.int)
	p.lit(`,"AddedEpoch0":`)
	t.AddedEpoch0 = p.int()
	p.lit(`,"MarkedEpoch0":`)
	t.MarkedEpoch0 = p.int()
	p.lit(`,"MarkedTracking":`)
	t.MarkedTracking = p.int()
	p.lit(`,"Epoch0Edges":`)
	t.Epoch0Edges = p.int()
	p.lit(`,"APhaseEdges":`)
	t.APhaseEdges = p.int()
	p.lit(`,"RemainderEdges":`)
	t.RemainderEdges = p.int()
	p.lit(`,"Patched":`)
	t.Patched = p.int()
	p.lit(`,"Degenerate":`)
	t.Degenerate = p.bool()
	p.lit(`,"TrackedPeak":`)
	t.TrackedPeak = p.int()
	p.lit(`,"SolAdditions":`)
	t.SolAdditions = list(&p, p.solAddition)
	p.lit(`,"MarkedAtAEnd":`)
	t.MarkedAtAEnd = list(&p, p.bool)
	p.lit(`,"SolAtAEnd":`)
	t.SolAtAEnd = list(&p, p.int32)
	p.lit(`,"SpecialSets":`)
	t.SpecialSets = list(&p, func() [][]int32 {
		return list(&p, func() []int32 { return list(&p, p.int32) })
	})
	p.lit(`}`)
	if p.bad || len(p.b) != 0 {
		return Trace{}, errTraceJSON
	}
	return t, nil
}

// traceParser is a sticky-failure cursor over a trace section: after the
// first mismatch every method consumes nothing and returns a zero value.
type traceParser struct {
	b   []byte
	bad bool
}

// lit consumes the literal s.
func (p *traceParser) lit(s string) {
	if !p.bad && len(p.b) >= len(s) && string(p.b[:len(s)]) == s {
		p.b = p.b[len(s):]
		return
	}
	p.bad = true
}

// next consumes the byte c if it is next.
func (p *traceParser) next(c byte) bool {
	if !p.bad && len(p.b) > 0 && p.b[0] == c {
		p.b = p.b[1:]
		return true
	}
	return false
}

// integer consumes an integer in [lo, hi] in json.Marshal's form: an
// optional minus, then 0 or a digit string without a leading zero ("-0"
// is not a form Marshal writes).
func (p *traceParser) integer(lo, hi int64) int64 {
	neg := p.next('-')
	b := p.b
	i := 0
	var u uint64
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		if i == 19 { // more digits than any int64
			p.bad = true
			return 0
		}
		u = u*10 + uint64(b[i]-'0')
	}
	if p.bad || i == 0 || (b[0] == '0' && (i > 1 || neg)) {
		p.bad = true
		return 0
	}
	p.b = b[i:]
	var v int64
	switch {
	case !neg && u <= math.MaxInt64:
		v = int64(u)
	case neg && u <= 1<<63:
		v = int64(-u) // -(1<<63) wraps to math.MinInt64
	default:
		p.bad = true
		return 0
	}
	if v < lo || v > hi {
		p.bad = true
		return 0
	}
	return v
}

func (p *traceParser) int() int     { return int(p.integer(math.MinInt, math.MaxInt)) }
func (p *traceParser) int32() int32 { return int32(p.integer(math.MinInt32, math.MaxInt32)) }

func (p *traceParser) bool() bool {
	switch {
	case p.bad || len(p.b) == 0:
	case p.b[0] == 't':
		p.lit("true")
		return !p.bad
	case p.b[0] == 'f':
		p.lit("false")
		return false
	}
	p.bad = true
	return false
}

func (p *traceParser) solAddition() SolAddition {
	var s SolAddition
	p.lit(`{"Pos":`)
	s.Pos = p.int()
	p.lit(`,"Set":`)
	s.Set = p.int32()
	p.lit(`,"Alg":`)
	s.Alg = p.int()
	p.lit(`,"Epoch":`)
	s.Epoch = p.int()
	p.lit(`}`)
	return s
}

// list consumes null (a nil slice) or a JSON array of elem values; [] is
// an empty, non-nil slice, as json.Unmarshal makes it.
func list[T any](p *traceParser, elem func() T) []T {
	if !p.bad && len(p.b) >= 4 && string(p.b[:4]) == "null" {
		p.b = p.b[4:]
		return nil
	}
	p.lit("[")
	v := []T{}
	if p.next(']') {
		return v
	}
	for !p.bad {
		v = append(v, elem())
		if !p.next(',') {
			p.lit("]")
			break
		}
	}
	if p.bad {
		return nil
	}
	return v
}
