package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer: its name, its interval, the span
// that caused it and the session token it served. Times are nanoseconds
// since the run's trace base.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Token  string `json:"token"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of one goroutine in memory. Span IDs carry the
// tracer's number in their high bits, so they are unique across tracers. A
// nil tracer records nothing: the untraced run passes nil everywhere.
type tracer struct {
	base  time.Time
	idHi  uint64
	spans []span
}

func newTracer(base time.Time, n int) *tracer {
	return &tracer{base: base, idHi: uint64(n+1) << 40}
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name, token string, parent uint64) uint64 {
	if t == nil {
		return 0
	}
	id := t.idHi | uint64(len(t.spans)+1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Token: token, Start: int64(time.Since(t.base))})
	return id
}

func (t *tracer) end(id uint64) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id&(1<<40-1)-1].End = int64(time.Since(t.base))
}

// setToken stamps a span with the token learned after it opened (a session
// span whose token the server minted).
func (t *tracer) setToken(id uint64, token string) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id&(1<<40-1)-1].Token = token
}

// selfTime is the time spent in spans of one name, and the part of it not
// covered by their child spans.
type selfTime struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes aggregates every span by name, largest self time first. A
// span's children run on its own goroutine, one after another, so its self
// time is its duration minus its children's.
func selfTimes(trs []*tracer) []selfTime {
	by := map[string]*selfTime{}
	for _, t := range trs {
		child := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.Parent != 0 && s.Parent&^(1<<40-1) == t.idHi {
				child[s.Parent&(1<<40-1)-1] += s.End - s.Start
			}
		}
		for i, s := range t.spans {
			st := by[s.Name]
			if st == nil {
				st = &selfTime{name: s.Name}
				by[s.Name] = st
			}
			st.count++
			st.total += time.Duration(s.End - s.Start)
			st.self += time.Duration(s.End - s.Start - child[i])
		}
	}
	out := make([]selfTime, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// writeSpans dumps every span as one JSON object per line.
func writeSpans(path string, trs []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, t := range trs {
		for i := range t.spans {
			if err := enc.Encode(&t.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
