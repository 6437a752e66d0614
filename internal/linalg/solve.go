package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization meets an (effectively)
// singular pivot.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// ErrNotSPD is returned by Cholesky when the matrix is not symmetric
// positive definite.
var ErrNotSPD = errors.New("linalg: matrix is not symmetric positive definite")

// ErrNoConverge is returned by iterative solvers that exhaust their
// iteration budget.
var ErrNoConverge = errors.New("linalg: iterative solver did not converge")

// Cholesky is the factorization A = L·Lᵀ of a symmetric positive-definite
// matrix. Thermal conductance matrices are SPD by construction, so this is
// the dense steady-state solver and the reference SparseCholesky is
// verified against.
type Cholesky struct {
	n int
	l *Matrix // lower triangular
}

// FactorCholesky computes the Cholesky factorization of a. It returns
// ErrNotSPD if a is not symmetric (within a loose tolerance) or a pivot
// is non-positive, and ErrSingular when a pivot falls below
// cholPivotRelTol times the matrix's max-abs element, so a degenerate
// conductance network fails loudly instead of amplifying rounding noise.
func FactorCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("linalg: FactorCholesky needs square matrix, got %dx%d", a.Rows(), a.Cols())
	}
	if !a.IsSymmetric(1e-8 * (1 + a.MaxAbs())) {
		return nil, ErrNotSPD
	}
	n := a.Rows()
	l := NewMatrix(n, n)
	tiny := cholPivotRelTol * a.MaxAbs()
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= tiny {
			// A pivot clearly below zero means indefinite; one within
			// rounding noise of zero means singular to working
			// precision (rounding can push it to either side of 0).
			if d <= -tiny {
				return nil, ErrNotSPD
			}
			return nil, ErrSingular
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/ljj)
		}
	}
	return &Cholesky{n: n, l: l}, nil
}

// Solve solves A·x = b using the factorization.
func (c *Cholesky) Solve(b []float64) ([]float64, error) {
	x := make([]float64, c.n)
	if err := c.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto solves A·x = b into the caller-supplied x without
// allocating: both triangular sweeps run in place on x. x and b may
// alias; b is otherwise not modified.
func (c *Cholesky) SolveInto(x, b []float64) error {
	if len(b) != c.n {
		return fmt.Errorf("linalg: Cholesky.Solve rhs length %d, want %d", len(b), c.n)
	}
	if len(x) != c.n {
		return fmt.Errorf("linalg: Cholesky.SolveInto dst length %d, want %d", len(x), c.n)
	}
	// L·y = b, with y accumulated in x (x[j] for j < i already holds y).
	for i := 0; i < c.n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= c.l.At(i, j) * x[j]
		}
		x[i] = s / c.l.At(i, i)
	}
	// Lᵀ·x = y in place: x[j] for j > i is already the final solution,
	// x[i] still holds y[i] when it is read.
	for i := c.n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < c.n; j++ {
			s -= c.l.At(j, i) * x[j]
		}
		x[i] = s / c.l.At(i, i)
	}
	return nil
}

// SolveTridiag solves a tridiagonal system with the Thomas algorithm.
// sub, diag, sup are the sub-, main and super-diagonals; len(sub) and
// len(sup) must be len(diag)-1. The inputs are not modified.
func SolveTridiag(sub, diag, sup, b []float64) ([]float64, error) {
	n := len(diag)
	if n == 0 {
		return nil, errors.New("linalg: SolveTridiag empty system")
	}
	if len(sub) != n-1 || len(sup) != n-1 || len(b) != n {
		return nil, fmt.Errorf("linalg: SolveTridiag inconsistent lengths sub=%d diag=%d sup=%d b=%d",
			len(sub), len(diag), len(sup), len(b))
	}
	c := make([]float64, n-1)
	d := make([]float64, n)
	if diag[0] == 0 {
		return nil, ErrSingular
	}
	if n > 1 {
		c[0] = sup[0] / diag[0]
	}
	d[0] = b[0] / diag[0]
	for i := 1; i < n; i++ {
		den := diag[i] - sub[i-1]*c[i-1]
		if den == 0 {
			return nil, ErrSingular
		}
		if i < n-1 {
			c[i] = sup[i] / den
		}
		d[i] = (b[i] - sub[i-1]*d[i-1]) / den
	}
	x := make([]float64, n)
	x[n-1] = d[n-1]
	for i := n - 2; i >= 0; i-- {
		x[i] = d[i] - c[i]*x[i+1]
	}
	return x, nil
}

// CG solves the SPD system a·x = b with the conjugate-gradient method,
// starting from the zero vector, to relative residual tol (on ‖b‖) within
// maxIter iterations. It exists as an ablation/verification path for the
// direct solvers and for larger grids.
func CG(a *Matrix, b []float64, tol float64, maxIter int) ([]float64, error) {
	n := len(b)
	if a.Rows() != n || a.Cols() != n {
		return nil, fmt.Errorf("linalg: CG dimension mismatch %dx%d vs %d", a.Rows(), a.Cols(), n)
	}
	x := make([]float64, n)
	r := make([]float64, n)
	copy(r, b)
	p := make([]float64, n)
	copy(p, b)
	bnorm := Norm2(b)
	if bnorm == 0 {
		return x, nil
	}
	rs := Dot(r, r)
	for it := 0; it < maxIter; it++ {
		ap := a.MulVec(p)
		den := Dot(p, ap)
		if den <= 0 {
			return nil, ErrNotSPD
		}
		alpha := rs / den
		AXPY(alpha, p, x)
		AXPY(-alpha, ap, r)
		rsNew := Dot(r, r)
		if math.Sqrt(rsNew) <= tol*bnorm {
			return x, nil
		}
		beta := rsNew / rs
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rs = rsNew
	}
	return nil, ErrNoConverge
}
