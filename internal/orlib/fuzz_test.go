package orlib

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParse checks that the OR-Library parser never panics on arbitrary
// text and that anything it accepts survives a Write/Parse round trip.
func FuzzParse(f *testing.F) {
	f.Add(tiny)
	f.Add("")
	f.Add("1 1\n1\n1 1\n")
	f.Add("2 2\n1 1\n1 1\n1 2\n")
	f.Add("999999999 999999999\n")
	f.Add("4 3\n2 5 1\n1 1\n2 1 2\n2 2 3\n1 0")
	f.Add("1 48888888888") // a column count no input backs: once an out-of-memory crash

	f.Fuzz(func(t *testing.T, input string) {
		got, err := Parse(strings.NewReader(input))
		if err != nil {
			return
		}
		// Accepted input must be internally consistent and feasible.
		if err := got.Inst.Validate(); err != nil {
			t.Fatalf("accepted infeasible instance: %v", err)
		}
		if len(got.Costs) != got.Inst.NumSets() {
			t.Fatalf("cost count %d for %d sets", len(got.Costs), got.Inst.NumSets())
		}
		var buf bytes.Buffer
		if err := Write(&buf, got.Inst, got.Costs); err != nil {
			t.Fatalf("re-write of accepted instance failed: %v", err)
		}
		again, err := Parse(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if again.Inst.NumEdges() != got.Inst.NumEdges() ||
			again.Inst.NumSets() != got.Inst.NumSets() ||
			again.Inst.UniverseSize() != got.Inst.UniverseSize() {
			t.Fatal("round trip changed the instance shape")
		}
	})
}
