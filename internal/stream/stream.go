// Package stream provides the one-pass edge-arrival streaming substrate: the
// edge type, replayable streams, the family of arrival orders the
// experiments use (adversarial variants and uniform random order), a binary
// on-disk codec, and the driver that runs a streaming algorithm over a
// stream.
//
// An edge-arrival stream (paper §1) is a sequence of tuples (S, u) meaning
// element u belongs to set S; each membership appears exactly once, so a
// stream is a permutation of the instance's bipartite edges (§2).
package stream

import (
	"fmt"

	"streamcover/internal/setcover"
)

// Edge is one stream tuple (S, u): element Elem is contained in set Set.
type Edge struct {
	Set  setcover.SetID
	Elem setcover.Element
}

func (e Edge) String() string { return fmt.Sprintf("(S%d,u%d)", e.Set, e.Elem) }

// Stream is a finite, replayable sequence of edges. Implementations are not
// safe for concurrent use.
type Stream interface {
	// Len returns the total number of edges N.
	Len() int
	// Next returns the next edge, or ok=false after the last one.
	Next() (e Edge, ok bool)
	// Reset rewinds the stream to the beginning.
	Reset()
}

// Slice is an in-memory Stream over an edge slice.
type Slice struct {
	edges []Edge
	pos   int
}

// NewSlice wraps edges (not copied) as a Stream.
func NewSlice(edges []Edge) *Slice { return &Slice{edges: edges} }

// Len implements Stream.
func (s *Slice) Len() int { return len(s.edges) }

// Next implements Stream.
func (s *Slice) Next() (Edge, bool) {
	if s.pos >= len(s.edges) {
		return Edge{}, false
	}
	e := s.edges[s.pos]
	s.pos++
	return e, true
}

// NextBatch implements Batcher: the returned slice is a view of the
// underlying storage (no copy) covering the next min(max, remaining) edges.
func (s *Slice) NextBatch(max int) []Edge {
	if s.pos >= len(s.edges) || max <= 0 {
		return nil
	}
	hi := s.pos + max
	if hi > len(s.edges) {
		hi = len(s.edges)
	}
	batch := s.edges[s.pos:hi]
	s.pos = hi
	return batch
}

// Reset implements Stream.
func (s *Slice) Reset() { s.pos = 0 }

// Edges returns the underlying slice (shared, not copied).
func (s *Slice) Edges() []Edge { return s.edges }

var _ Stream = (*Slice)(nil)
var _ Batcher = (*Slice)(nil)

// EdgesOf materialises all edges of an instance in canonical order:
// set-major (all edges of set 0, then set 1, ...), elements ascending within
// a set.
func EdgesOf(inst *setcover.Instance) []Edge {
	edges := make([]Edge, 0, inst.NumEdges())
	for s := 0; s < inst.NumSets(); s++ {
		for _, u := range inst.Set(setcover.SetID(s)) {
			edges = append(edges, Edge{Set: setcover.SetID(s), Elem: u})
		}
	}
	return edges
}

// Validate checks that edges is exactly a permutation of inst's bipartite
// edges: every (set, element) pair valid, present in the instance, and
// appearing exactly once. Streaming algorithms assume this of their input;
// decoders use it for failure detection.
func Validate(inst *setcover.Instance, edges []Edge) error {
	if len(edges) != inst.NumEdges() {
		return fmt.Errorf("stream: %d edges, instance has %d", len(edges), inst.NumEdges())
	}
	seen := make(map[Edge]struct{}, len(edges))
	for i, e := range edges {
		if e.Set < 0 || int(e.Set) >= inst.NumSets() {
			return fmt.Errorf("stream: edge %d: set %d out of range", i, e.Set)
		}
		if e.Elem < 0 || int(e.Elem) >= inst.UniverseSize() {
			return fmt.Errorf("stream: edge %d: element %d out of range", i, e.Elem)
		}
		if !inst.Contains(e.Set, e.Elem) {
			return fmt.Errorf("stream: edge %d: %v not in instance", i, e)
		}
		if _, dup := seen[e]; dup {
			return fmt.Errorf("stream: edge %d: duplicate %v", i, e)
		}
		seen[e] = struct{}{}
	}
	return nil
}
