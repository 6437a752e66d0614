package linalg

import (
	"errors"
	"fmt"
)

// The transient thermal model is the linear ODE
//
//	C·dT/dt = P(t) − G·T
//
// with diagonal capacitance C, conductance G and power injection P.
// Backward Euler is unconditionally stable and is the integrator every
// transient in this repository uses.

// BackwardEuler is the factored implicit system of the scheme
// (C/dt + G)·T₊ = C/dt·T + P. C/dt + G is SPD with the sparsity of G,
// so it is factored once with SparseCholesky under the caller's
// elimination order; the factor is immutable afterwards and safe for
// concurrent read-only use, so any number of states can step against
// one BackwardEuler at once.
//
// States and power vectors passed to StepInto are in elimination order
// (position k holds original node perm[k] of the order the factor was
// built with): a caller that keeps its state permuted steps with no
// gather/scatter at all.
type BackwardEuler struct {
	dt  float64
	cdt []float64 // C/dt, in elimination order
	inv []float64 // reciprocal pivots 1/L[k,k]: a multiply, not a divide, on the sweeps' critical path
	f   *SparseCholesky
}

// NewBackwardEuler factors C/dt + G for conductance matrix g, diagonal
// capacitances c (length g.N()) and fixed step dt (seconds) under the
// elimination order perm (nil means natural order, in which the factor
// is bitwise the dense Cholesky of C/dt + G).
func NewBackwardEuler(g *CSR, c []float64, dt float64, perm []int) (*BackwardEuler, error) {
	n := g.N()
	if len(c) != n {
		return nil, fmt.Errorf("linalg: capacitance length %d, want %d", len(c), n)
	}
	if !(dt > 0) {
		return nil, errors.New("linalg: step size must be positive")
	}
	for i, ci := range c {
		if !(ci > 0) {
			return nil, fmt.Errorf("linalg: capacitance[%d] = %g, must be positive", i, ci)
		}
	}
	cdt := make([]float64, n)
	for i := range cdt {
		cdt[i] = c[i] / dt
	}
	f, err := FactorSparseCholeskyOrdered(g.addDiag(cdt), perm)
	if err != nil {
		return nil, fmt.Errorf("linalg: factor backward-Euler system: %w", err)
	}
	permuted := cdt
	if perm != nil {
		permuted = make([]float64, n)
		for k, p := range perm {
			permuted[k] = cdt[p]
		}
	}
	inv := make([]float64, n)
	for i, d := range f.diag {
		inv[i] = 1 / d
	}
	return &BackwardEuler{dt: dt, cdt: permuted, inv: inv, f: f}, nil
}

// Dt returns the fixed step size.
func (b *BackwardEuler) Dt() float64 { return b.dt }

// StepInto advances the elimination-ordered state x by one step under
// the elimination-ordered power p, in place and without allocating.
// The right-hand side C/dt·x + p is formed inside the forward sweep
// (x[i] is still the old state when row i reads it), so no workspace
// is needed and concurrent steps on distinct states never contend.
// Pivots are applied as reciprocal multiplies, so a step matches a
// dense Cholesky solve of the same system to rounding, not bitwise.
func (b *BackwardEuler) StepInto(x, p []float64) error {
	f := b.f
	if len(x) != f.n || len(p) != f.n {
		return fmt.Errorf("linalg: step lengths x=%d p=%d, want %d", len(x), len(p), f.n)
	}
	cdt := b.cdt[:len(x)]
	p = p[:len(x)]
	inv := b.inv[:len(x)]
	rowPtr, rowCols, rowVals := f.rowPtr[:len(x)+1], f.rowCols, f.rowVals
	for i := range x {
		s := cdt[i]*x[i] + p[i]
		lo, hi := rowPtr[i], rowPtr[i+1]
		cols, vals := rowCols[lo:hi], rowVals[lo:hi]
		vals = vals[:len(cols)]
		for k, j := range cols {
			s -= vals[k] * x[j]
		}
		x[i] = s * inv[i]
	}
	colPtr, colRows, colVals := f.colPtr[:len(x)+1], f.colRows, f.colVals
	for i := len(x) - 1; i >= 0; i-- {
		s := x[i]
		lo, hi := colPtr[i], colPtr[i+1]
		rows, vals := colRows[lo:hi], colVals[lo:hi]
		vals = vals[:len(rows)]
		for k, r := range rows {
			s -= vals[k] * x[r]
		}
		x[i] = s * inv[i]
	}
	return nil
}

// StepManyInto advances m states at once: x and p hold them
// interleaved node-major in elimination order (x[k*m+r] is position k
// of state r). Each state sees exactly the operations StepInto applies,
// in the same order, so the results are bitwise those of m separate
// steps; sweeping the factor once for all m states amortizes its index
// traffic and leaves contiguous inner loops.
func (b *BackwardEuler) StepManyInto(x, p []float64, m int) error {
	f := b.f
	if m <= 0 || len(x) != f.n*m || len(p) != f.n*m {
		return fmt.Errorf("linalg: step lengths x=%d p=%d, want %d×%d", len(x), len(p), f.n, m)
	}
	for i := 0; i < f.n; i++ {
		xi, pi := x[i*m:(i+1)*m], p[i*m:(i+1)*m]
		pi = pi[:len(xi)]
		for r := range xi {
			xi[r] = b.cdt[i]*xi[r] + pi[r]
		}
		for k := f.rowPtr[i]; k < f.rowPtr[i+1]; k++ {
			v, j := f.rowVals[k], int(f.rowCols[k])
			xj := x[j*m : (j+1)*m]
			xj = xj[:len(xi)]
			for r := range xi {
				xi[r] -= v * xj[r]
			}
		}
		for r := range xi {
			xi[r] *= b.inv[i]
		}
	}
	for i := f.n - 1; i >= 0; i-- {
		xi := x[i*m : (i+1)*m]
		for k := f.colPtr[i]; k < f.colPtr[i+1]; k++ {
			v, j := f.colVals[k], int(f.colRows[k])
			xj := x[j*m : (j+1)*m]
			xj = xj[:len(xi)]
			for r := range xi {
				xi[r] -= v * xj[r]
			}
		}
		for r := range xi {
			xi[r] *= b.inv[i]
		}
	}
	return nil
}
