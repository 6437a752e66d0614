package linalg

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// cholPivotRelTol is the shared relative singularity threshold of the
// Cholesky factorizations (dense and sparse): a pivot this far below
// the matrix's largest element means the conductance network is
// singular to working precision (e.g. a block thermally disconnected
// from the sink), and deserves ErrSingular rather than a NaN-laden
// factor.
const cholPivotRelTol = 1e-12

// SparseCholesky is the factorization P·A·Pᵀ = L·Lᵀ of a symmetric
// positive-definite sparse matrix, with an optional fill-reducing
// elimination order P. The strictly-lower factor is stored twice — by
// rows (forward substitution) and by columns (backward substitution) —
// trading memory for allocation-free triangular sweeps. Under natural
// order (nil permutation) the accumulation sequence matches the dense
// FactorCholesky term for term, so factor and solves are bitwise
// identical to the dense reference; under a fill-reducing order they
// agree to rounding.
type SparseCholesky struct {
	n    int
	perm []int // perm[k] = original index eliminated at step k; nil = natural
	diag []float64

	// Strictly-lower L by rows: row i's entries in increasing column order.
	rowPtr  []int
	rowCols []int32
	rowVals []float64
	// The same entries by columns, in increasing row order.
	colPtr  []int
	colRows []int32
	colVals []float64

	mu   sync.Mutex
	free [][]float64 // scratch freelist for permuted solves
}

// FactorSparseCholesky factors a in natural order (no permutation).
func FactorSparseCholesky(a *CSR) (*SparseCholesky, error) {
	return FactorSparseCholeskyOrdered(a, nil)
}

// FactorSparseCholeskyOrdered factors a under the elimination order
// perm (perm[k] = original index eliminated at step k); nil means
// natural order. It returns ErrNotSPD when a is not symmetric (within
// the same loose tolerance as the dense path) or a pivot is
// non-positive, and ErrSingular when a pivot falls below
// cholPivotRelTol times the matrix's max-abs element — the same
// near-singular contract as FactorCholesky.
func FactorSparseCholeskyOrdered(a *CSR, perm []int) (*SparseCholesky, error) {
	n := a.n
	inv, err := invertPermutation(n, perm)
	if err != nil {
		return nil, err
	}
	if err := checkCSRSymmetric(a); err != nil {
		return nil, err
	}
	f := &SparseCholesky{n: n, perm: perm, diag: make([]float64, n)}
	tiny := cholPivotRelTol * a.MaxAbs()

	// Up-looking row factorization in push form. Columns of L grow as
	// rows complete; when row i scans column j it sees exactly the
	// entries L[r,j] with r ≤ i. The dense workspace w holds row i of
	// the partially eliminated matrix; w[j] is final when the scan
	// reaches j because updates to it only flow from columns k < j,
	// all already processed this row.
	cols := make([][]int32, n)
	vals := make([][]float64, n)
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		// Scatter the lower triangle of row i of P·A·Pᵀ into w.
		orig := i
		if perm != nil {
			orig = perm[i]
		}
		for k := a.rowPtr[orig]; k < a.rowPtr[orig+1]; k++ {
			j := a.colIdx[k]
			if inv != nil {
				j = inv[j]
			}
			if j <= i {
				w[j] += a.vals[k]
			}
		}
		for j := 0; j < i; j++ {
			if w[j] == 0 {
				continue
			}
			lij := w[j] / f.diag[j]
			w[j] = 0
			// Appending (i, lij) to column j before the push folds the
			// diagonal update w[i] -= lij² into the same loop as the
			// off-diagonal ones, in the same increasing-k order the
			// dense code subtracts its inner products.
			cols[j] = append(cols[j], int32(i))
			vals[j] = append(vals[j], lij)
			cj, vj := cols[j], vals[j]
			for k := range cj {
				w[cj[k]] -= lij * vj[k]
			}
		}
		d := w[i]
		w[i] = 0
		if d <= tiny {
			// Same split as the dense FactorCholesky: clearly negative
			// is indefinite, within noise of zero is singular.
			if d <= -tiny {
				return nil, ErrNotSPD
			}
			return nil, ErrSingular
		}
		f.diag[i] = math.Sqrt(d)
	}
	f.compress(cols, vals)
	return f, nil
}

// compress flattens per-column factor entries into the dual flat
// layouts (by column, and transposed by row).
func (f *SparseCholesky) compress(cols [][]int32, vals [][]float64) {
	n := f.n
	nnz := 0
	for j := 0; j < n; j++ {
		nnz += len(cols[j])
	}
	f.colPtr = make([]int, n+1)
	f.colRows = make([]int32, 0, nnz)
	f.colVals = make([]float64, 0, nnz)
	rowLen := make([]int, n)
	for j := 0; j < n; j++ {
		f.colPtr[j] = len(f.colRows)
		f.colRows = append(f.colRows, cols[j]...)
		f.colVals = append(f.colVals, vals[j]...)
		for _, r := range cols[j] {
			rowLen[r]++
		}
	}
	f.colPtr[n] = len(f.colRows)
	f.rowPtr = make([]int, n+1)
	for i := 0; i < n; i++ {
		f.rowPtr[i+1] = f.rowPtr[i] + rowLen[i]
	}
	f.rowCols = make([]int32, nnz)
	f.rowVals = make([]float64, nnz)
	next := make([]int, n)
	copy(next, f.rowPtr[:n])
	// Iterating columns in increasing j appends to each row in
	// increasing column order — the order forward substitution wants.
	for j := 0; j < n; j++ {
		for k := f.colPtr[j]; k < f.colPtr[j+1]; k++ {
			r := f.colRows[k]
			f.rowCols[next[r]] = int32(j)
			f.rowVals[next[r]] = f.colVals[k]
			next[r]++
		}
	}
}

// N returns the system dimension.
func (f *SparseCholesky) N() int { return f.n }

// NNZ returns the number of stored below-diagonal factor entries —
// the fill the elimination order is trying to minimize.
func (f *SparseCholesky) NNZ() int { return len(f.colRows) + f.n }

// Solve solves A·x = b using the factorization.
func (f *SparseCholesky) Solve(b []float64) ([]float64, error) {
	x := make([]float64, f.n)
	if err := f.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto solves A·x = b into the caller-supplied x without
// allocating on the steady path (permuted solves draw one scratch
// vector from an internal freelist; after first use the path is
// allocation-free). x and b may alias; b is otherwise not modified.
// SolveInto is safe for concurrent use.
func (f *SparseCholesky) SolveInto(x, b []float64) error {
	if len(b) != f.n {
		return fmt.Errorf("linalg: SparseCholesky.Solve rhs length %d, want %d", len(b), f.n)
	}
	if len(x) != f.n {
		return fmt.Errorf("linalg: SparseCholesky.SolveInto dst length %d, want %d", len(x), f.n)
	}
	if f.perm == nil {
		f.solveNatural(x, b)
		return nil
	}
	z := f.getScratch()
	for k := 0; k < f.n; k++ {
		z[k] = b[f.perm[k]]
	}
	f.solveNatural(z, z)
	for k := 0; k < f.n; k++ {
		x[f.perm[k]] = z[k]
	}
	f.putScratch(z)
	return nil
}

// solveNatural runs both triangular sweeps in the factor's own
// (already permuted) index space, in place on x. x and b may alias.
func (f *SparseCholesky) solveNatural(x, b []float64) {
	// L·y = b, with y accumulated in x.
	for i := 0; i < f.n; i++ {
		s := b[i]
		for k := f.rowPtr[i]; k < f.rowPtr[i+1]; k++ {
			s -= f.rowVals[k] * x[f.rowCols[k]]
		}
		x[i] = s / f.diag[i]
	}
	// Lᵀ·x = y in place, via columns of L.
	for i := f.n - 1; i >= 0; i-- {
		s := x[i]
		for k := f.colPtr[i]; k < f.colPtr[i+1]; k++ {
			s -= f.colVals[k] * x[f.colRows[k]]
		}
		x[i] = s / f.diag[i]
	}
}

func (f *SparseCholesky) getScratch() []float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.free); n > 0 {
		z := f.free[n-1]
		f.free = f.free[:n-1]
		return z
	}
	return make([]float64, f.n)
}

func (f *SparseCholesky) putScratch(z []float64) {
	f.mu.Lock()
	f.free = append(f.free, z)
	f.mu.Unlock()
}

// MinDegreeOrdering returns a greedy minimum-degree elimination order
// for the sparsity pattern of a (lowest index wins degree ties, so the
// order is deterministic). On the thermal RC networks it pushes the
// dense convection rows — the heat-sink and ring nodes every block
// couples to — to the end of the elimination, which is exactly where
// their fill is harmless.
//
// The elimination graph is held as one adjacency bitset per node:
// eliminating a node ORs its neighbor set into each neighbor's row
// (the fill clique) and recounts degrees with popcounts, so the work is
// word-parallel and the allocations are a handful whatever the fill.
func MinDegreeOrdering(a *CSR) []int {
	n := a.n
	words := (n + 63) / 64
	adj := make([]uint64, n*words)
	row := func(v int) []uint64 { return adj[v*words : (v+1)*words] }
	for i := 0; i < n; i++ {
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			if j := a.colIdx[k]; j != i && a.vals[k] != 0 {
				adj[i*words+j/64] |= 1 << (j % 64)
				adj[j*words+i/64] |= 1 << (i % 64)
			}
		}
	}
	deg := make([]int, n)
	for v := range deg {
		deg[v] = popcount(row(v))
	}
	perm := make([]int, 0, n)
	done := make([]bool, n)
	clique := make([]uint64, words)
	for len(perm) < n {
		best, bestDeg := -1, n+1
		for v := 0; v < n; v++ {
			if !done[v] && deg[v] < bestDeg {
				best, bestDeg = v, deg[v]
			}
		}
		// Eliminate best: its neighbors become a clique, and best
		// leaves every neighbor's row.
		rb := row(best)
		copy(clique, rb)
		for w, word := range clique {
			for ; word != 0; word &= word - 1 {
				u := w*64 + bits.TrailingZeros64(word)
				ru := row(u)
				for x := range ru {
					ru[x] |= clique[x]
				}
				ru[u/64] &^= 1 << (u % 64)
				ru[best/64] &^= 1 << (best % 64)
				deg[u] = popcount(ru)
			}
		}
		for x := range rb {
			rb[x] = 0
		}
		done[best] = true
		perm = append(perm, best)
	}
	return perm
}

func popcount(words []uint64) int {
	c := 0
	for _, w := range words {
		c += bits.OnesCount64(w)
	}
	return c
}

// invertPermutation validates perm and returns its inverse
// (inv[original] = position), or (nil, nil) for a nil perm.
func invertPermutation(n int, perm []int) ([]int, error) {
	if perm == nil {
		return nil, nil
	}
	if len(perm) != n {
		return nil, fmt.Errorf("linalg: permutation length %d, want %d", len(perm), n)
	}
	inv := make([]int, n)
	for i := range inv {
		inv[i] = -1
	}
	for k, p := range perm {
		if p < 0 || p >= n || inv[p] != -1 {
			return nil, fmt.Errorf("linalg: invalid permutation entry %d at position %d", p, k)
		}
		inv[p] = k
	}
	return inv, nil
}

// checkCSRSymmetric mirrors the dense FactorCholesky symmetry check.
// Every off-diagonal entry is compared against its transpose slot in
// both directions, so a structurally one-sided entry is caught too.
func checkCSRSymmetric(a *CSR) error {
	tol := 1e-8 * (1 + a.MaxAbs())
	for i := 0; i < a.n; i++ {
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			j := a.colIdx[k]
			if j == i {
				continue
			}
			if math.Abs(a.vals[k]-a.At(j, i)) > tol {
				return ErrNotSPD
			}
		}
	}
	return nil
}
