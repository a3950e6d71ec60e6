// Package linalg provides the small dense linear-algebra kernel of the
// distributed thermal network (internal/thermal): a dense matrix and its
// pivoted LU factorisation, reusable across solves without allocating.
package linalg

// This file follows the BLAS/gonum kernel conventions: dimension misuse
// panics are the documented API contract (callers hold the invariants, and
// the thermal stepper cannot afford error plumbing per Set), and exact
// floating-point zero tests implement sparsity fast paths and
// division-by-zero singularity guards whose semantics an epsilon would
// change.
//lint:file-ignore nopanic dimension-misuse panics are the documented kernel contract, per the gonum convention
//lint:file-ignore floatcompare exact zero tests here are sparsity skips and singularity guards; an epsilon would alter numerics

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense, row-major matrix of float64.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, x float64) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
	m.data[i*m.cols+j] = x
}

// Zero sets every element of m to zero, keeping the backing storage.
func (m *Matrix) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// ErrSingular is returned when a factorisation encounters a (numerically)
// singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular")

// LUFactor holds an LU factorisation with partial pivoting (PA = LU). The
// zero value is ready for Factorize.
type LUFactor struct {
	lu   *Matrix
	perm []int
}

// Factorize computes the factorisation of the square matrix a, reusing the
// receiver's storage when the dimensions match (so a solver stepping a
// fixed-size system allocates only on the first call). It returns
// ErrSingular if a pivot underflows; the factor contents are then undefined.
func (f *LUFactor) Factorize(a *Matrix) error {
	if a.rows != a.cols {
		panic(dimErr("LU", a.rows, a.cols))
	}
	n := a.rows
	if f.lu == nil || f.lu.rows != n || f.lu.cols != n {
		f.lu = NewMatrix(n, n)
		f.perm = make([]int, n)
	}
	lu := f.lu
	copy(lu.data, a.data)
	perm := f.perm
	for i := range perm {
		perm[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot: find the largest |value| in column k at or below row k.
		p, best := k, math.Abs(lu.data[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.data[i*n+k]); a > best {
				p, best = i, a
			}
		}
		if best == 0 || math.IsNaN(best) {
			return ErrSingular
		}
		if p != k {
			rk := lu.data[k*n : (k+1)*n]
			rp := lu.data[p*n : (p+1)*n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			perm[k], perm[p] = perm[p], perm[k]
		}
		piv := lu.data[k*n+k]
		for i := k + 1; i < n; i++ {
			f := lu.data[i*n+k] / piv
			lu.data[i*n+k] = f
			if f == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.data[i*n+j] -= f * lu.data[k*n+j]
			}
		}
	}
	return nil
}

// SolveTo solves A·x = b for the factored matrix, writing the solution into
// dst without allocating. dst must have length n and must not alias b; it
// panics on dimension mismatch.
func (f *LUFactor) SolveTo(dst, b []float64) {
	n := f.lu.rows
	if len(b) != n {
		panic(dimErr("LUFactor.SolveTo b", n, len(b)))
	}
	if len(dst) != n {
		panic(dimErr("LUFactor.SolveTo dst", n, len(dst)))
	}
	x := dst
	for i := 0; i < n; i++ {
		x[i] = b[f.perm[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		var s float64
		row := f.lu.data[i*n : i*n+i]
		for j, l := range row {
			s += l * x[j]
		}
		x[i] -= s
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += f.lu.data[i*n+j] * x[j]
		}
		x[i] = (x[i] - s) / f.lu.data[i*n+i]
	}
}

func dimErr(op string, a, b int) string {
	return fmt.Sprintf("linalg: %s dimension mismatch: %d vs %d", op, a, b)
}
