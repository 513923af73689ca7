package mpi

import "fmt"

// Grid is the logical 2-D arrangement of ranks used by the fixed
// lattice embedding: P processors as a Rows × Cols grid, row-major,
// mirroring the paper's √P × √P layout (generalised to near-square
// rectangles when P is not an even power of two).
type Grid struct {
	Rows, Cols int
}

// GridFor returns the most-square factorisation of p with Rows <= Cols.
// For powers of two this is the paper's √P×√P grid (or √(P/2)×√(2P)).
func GridFor(p int) Grid {
	if p <= 0 {
		panic("mpi: GridFor of non-positive size")
	}
	best := Grid{1, p}
	for r := 1; r*r <= p; r++ {
		if p%r == 0 {
			best = Grid{r, p / r}
		}
	}
	return best
}

// Size returns the number of ranks in the grid.
func (g Grid) Size() int { return g.Rows * g.Cols }

// RowOf returns the grid row of rank.
func (g Grid) RowOf(rank int) int { return rank / g.Cols }

// ColOf returns the grid column of rank.
func (g Grid) ColOf(rank int) int { return rank % g.Cols }

// RankAt returns the rank at grid position (row, col).
func (g Grid) RankAt(row, col int) int {
	if row < 0 || row >= g.Rows || col < 0 || col >= g.Cols {
		panic(fmt.Sprintf("mpi: grid position (%d,%d) outside %dx%d", row, col, g.Rows, g.Cols))
	}
	return row*g.Cols + col
}

// Neighbors returns the ranks adjacent to rank in the 4-neighbourhood
// (N, S, W, E order, omitting off-grid directions).
func (g Grid) Neighbors(rank int) []int {
	r, c := g.RowOf(rank), g.ColOf(rank)
	out := make([]int, 0, 4)
	if r > 0 {
		out = append(out, g.RankAt(r-1, c))
	}
	if r < g.Rows-1 {
		out = append(out, g.RankAt(r+1, c))
	}
	if c > 0 {
		out = append(out, g.RankAt(r, c-1))
	}
	if c < g.Cols-1 {
		out = append(out, g.RankAt(r, c+1))
	}
	return out
}
