package linalg

import (
	"fmt"
	"math"
)

// The partial-pivoting LU below is test-only: production solves are
// all Cholesky (dense or sparse), and a different algorithm makes the
// better oracle for them. The LU tests in solve_test.go pin the oracle
// itself.

// LU is an LU factorization with partial pivoting: P·A = L·U.
// It is the independent reference the Cholesky solvers are checked
// against; factor once, solve many right-hand sides.
type LU struct {
	n    int
	lu   *Matrix // packed L (unit diagonal, strictly below) and U (on/above diagonal)
	piv  []int   // piv[k] = row swapped into position k at step k
	sign float64 // permutation parity, for Det
}

// luPivotRelTol is the relative singularity threshold of FactorLU: a
// pivot this far below the matrix's largest element signals a matrix
// that is singular to working precision — an exact-zero test would let
// near-singular systems through and silently amplify rounding noise
// into garbage solutions.
const luPivotRelTol = 1e-12

// FactorLU computes the LU factorization of the square matrix a.
// a is not modified. It returns ErrSingular when a pivot falls below
// luPivotRelTol times the matrix's max-abs element.
func FactorLU(a *Matrix) (*LU, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("linalg: FactorLU needs square matrix, got %dx%d", a.Rows(), a.Cols())
	}
	n := a.Rows()
	f := &LU{n: n, lu: a.Clone(), piv: make([]int, n), sign: 1}
	lu := f.lu
	tiny := luPivotRelTol * a.MaxAbs()
	for k := 0; k < n; k++ {
		// Partial pivoting: largest |value| in column k at/below row k.
		p := k
		maxAbs := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > maxAbs {
				maxAbs, p = v, i
			}
		}
		if maxAbs <= tiny {
			return nil, ErrSingular
		}
		f.piv[k] = p
		if p != k {
			f.sign = -f.sign
			for j := 0; j < n; j++ {
				vp, vk := lu.At(p, j), lu.At(k, j)
				lu.Set(p, j, vk)
				lu.Set(k, j, vp)
			}
		}
		inv := 1 / lu.At(k, k)
		for i := k + 1; i < n; i++ {
			l := lu.At(i, k) * inv
			lu.Set(i, k, l)
			if l == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Add(i, j, -l*lu.At(k, j))
			}
		}
	}
	return f, nil
}

// Solve solves A·x = b for one right-hand side. b is not modified.
func (f *LU) Solve(b []float64) ([]float64, error) {
	x := make([]float64, f.n)
	if err := f.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto solves A·x = b into the caller-supplied x without
// allocating — the hot-loop form behind zero-allocation transient
// stepping. x and b may alias (b is fully consumed before x is
// overwritten when they are the same slice); b is otherwise not
// modified.
func (f *LU) SolveInto(x, b []float64) error {
	if len(b) != f.n {
		return fmt.Errorf("linalg: LU.Solve rhs length %d, want %d", len(b), f.n)
	}
	if len(x) != f.n {
		return fmt.Errorf("linalg: LU.SolveInto dst length %d, want %d", len(x), f.n)
	}
	copy(x, b)
	// Apply the row swaps to the RHS in factorization order.
	for k := 0; k < f.n; k++ {
		if p := f.piv[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	// Forward substitution with unit-lower L.
	for i := 1; i < f.n; i++ {
		var s float64
		for j := 0; j < i; j++ {
			s += f.lu.At(i, j) * x[j]
		}
		x[i] -= s
	}
	// Back substitution with U.
	for i := f.n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < f.n; j++ {
			s += f.lu.At(i, j) * x[j]
		}
		x[i] = (x[i] - s) / f.lu.At(i, i)
	}
	return nil
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := f.sign
	for i := 0; i < f.n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// SolveLU is a convenience wrapper: factor a and solve a·x = b once.
func SolveLU(a *Matrix, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}
