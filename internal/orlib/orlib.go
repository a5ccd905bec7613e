// Package orlib reads Set Cover instances in the OR-Library SCP format —
// the standard benchmark format (Beasley's scp4x/scp5x/rail files) used by
// the practical set cover literature the paper cites in §1.3 ([5], [11],
// [21]). Parsing it lets the streaming algorithms run on the classical
// benchmark instances alongside the synthetic workloads.
//
// Format (whitespace-separated integers):
//
//	rows cols                 (rows = elements, cols = sets)
//	cost_1 ... cost_cols      (column costs; this library solves the
//	                           unweighted problem and reports costs only)
//	for each row r:
//	    k_r  col ... col      (the k_r columns covering row r, 1-based)
//
// The parser is strict: counts must match, indices must be in range, and
// trailing garbage is an error.
package orlib

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"streamcover/internal/setcover"
)

// Instance is a parsed OR-Library SCP instance.
type Instance struct {
	// Inst is the unweighted Set Cover instance: elements are the rows,
	// sets are the columns (both zero-based).
	Inst *setcover.Instance
	// Costs are the column costs from the file, index-aligned with set ids.
	Costs []int
}

// Parse reads one instance from r.
func Parse(r io.Reader) (*Instance, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	sc.Split(bufio.ScanWords)
	next := func(what string) (int, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return 0, fmt.Errorf("orlib: reading %s: %w", what, err)
			}
			return 0, fmt.Errorf("orlib: unexpected end of input reading %s", what)
		}
		v, err := strconv.Atoi(sc.Text())
		if err != nil {
			return 0, fmt.Errorf("orlib: %s: %q is not an integer", what, sc.Text())
		}
		return v, nil
	}

	rows, err := next("row count")
	if err != nil {
		return nil, err
	}
	cols, err := next("column count")
	if err != nil {
		return nil, err
	}
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("orlib: invalid dimensions %d×%d", rows, cols)
	}

	// Costs grow as they are read, so a corrupt column count cannot
	// provoke an allocation the input does not back.
	var costs []int
	for j := 0; j < cols; j++ {
		c, err := next(fmt.Sprintf("cost of column %d", j+1))
		if err != nil {
			return nil, err
		}
		if c < 0 {
			return nil, fmt.Errorf("orlib: negative cost %d for column %d", c, j+1)
		}
		costs = append(costs, c)
	}

	b := setcover.NewBuilder(rows)
	b.EnsureSets(cols)
	for row := 0; row < rows; row++ {
		k, err := next(fmt.Sprintf("cover count of row %d", row+1))
		if err != nil {
			return nil, err
		}
		if k < 1 {
			return nil, fmt.Errorf("orlib: row %d covered by %d columns; instance infeasible", row+1, k)
		}
		for i := 0; i < k; i++ {
			col, err := next(fmt.Sprintf("column %d/%d of row %d", i+1, k, row+1))
			if err != nil {
				return nil, err
			}
			if col < 1 || col > cols {
				return nil, fmt.Errorf("orlib: row %d references column %d outside [1,%d]", row+1, col, cols)
			}
			if err := b.AddEdge(setcover.SetID(col-1), setcover.Element(row)); err != nil {
				return nil, fmt.Errorf("orlib: %w", err)
			}
		}
	}
	if sc.Scan() {
		return nil, fmt.Errorf("orlib: trailing data %q after instance", sc.Text())
	}
	inst, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("orlib: %w", err)
	}
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("orlib: %w", err)
	}
	return &Instance{Inst: inst, Costs: costs}, nil
}

// Write emits inst in the OR-Library format (the inverse of Parse), using
// unit costs when costs is nil.
func Write(w io.Writer, inst *setcover.Instance, costs []int) error {
	rows, cols := inst.UniverseSize(), inst.NumSets()
	if costs != nil && len(costs) != cols {
		return fmt.Errorf("orlib: %d costs for %d columns", len(costs), cols)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d %d\n", rows, cols)
	for j := 0; j < cols; j++ {
		c := 1
		if costs != nil {
			c = costs[j]
		}
		if j > 0 {
			bw.WriteByte(' ')
		}
		fmt.Fprintf(bw, "%d", c)
	}
	bw.WriteByte('\n')

	// Invert the set→elements structure into row→columns.
	byRow := make([][]int, rows)
	for j := 0; j < cols; j++ {
		for _, u := range inst.Set(setcover.SetID(j)) {
			byRow[u] = append(byRow[u], j+1)
		}
	}
	for row := 0; row < rows; row++ {
		fmt.Fprintf(bw, "%d\n", len(byRow[row]))
		for i, col := range byRow[row] {
			if i > 0 {
				bw.WriteByte(' ')
			}
			fmt.Fprintf(bw, "%d", col)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
