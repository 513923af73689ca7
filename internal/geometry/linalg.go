package geometry

import "math"

// nvMaxRows/nvMaxCols bound the fixed-size elimination used by the
// Radon-point systems: (d+1)×(d+2) for d ≤ 4.
const (
	nvMaxRows = 5
	nvMaxCols = 6
)

// nullVectorFixed mirrors the slice-based NullVector reference (kept in
// the package's tests) on stack arrays for the small Radon systems. The elimination sequence (pivot choice, row
// normalisation, update order) is operation-for-operation the same as
// NullVector's, so the solution is bit-identical — but nothing escapes
// to the heap. The matrix m is clobbered.
func nullVectorFixed(m *[nvMaxRows][nvMaxCols]float64, rows, cols int) (x [nvMaxCols]float64, ok bool) {
	var pivotCol [nvMaxRows]int
	nPiv := 0
	r := 0
	for c := 0; c < cols && r < rows; c++ {
		pivot := -1
		best := 1e-12
		for i := r; i < rows; i++ {
			if v := math.Abs(m[i][c]); v > best {
				best, pivot = v, i
			}
		}
		if pivot < 0 {
			continue // free column
		}
		m[r], m[pivot] = m[pivot], m[r]
		inv := 1 / m[r][c]
		for j := c; j < cols; j++ {
			m[r][j] *= inv
		}
		for i := 0; i < rows; i++ {
			if i == r || m[i][c] == 0 {
				continue
			}
			f := m[i][c]
			for j := c; j < cols; j++ {
				m[i][j] -= f * m[r][j]
			}
		}
		pivotCol[nPiv] = c
		nPiv++
		r++
	}
	var isPivot [nvMaxCols]bool
	for _, c := range pivotCol[:nPiv] {
		isPivot[c] = true
	}
	free := -1
	for c := 0; c < cols; c++ {
		if !isPivot[c] {
			free = c
			break
		}
	}
	if free < 0 {
		return x, false
	}
	x[free] = 1
	for i, c := range pivotCol[:nPiv] {
		x[c] = -m[i][free]
	}
	mx := 0.0
	for _, v := range x[:cols] {
		if av := math.Abs(v); av > mx {
			mx = av
		}
	}
	if mx < 1e-300 {
		return x, false
	}
	for i := 0; i < cols; i++ {
		x[i] /= mx
	}
	return x, true
}
