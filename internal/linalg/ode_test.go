package linalg

import (
	"math"
	"sync"
	"testing"
)

// csrOf compresses a dense matrix's nonzeros into a CSR.
func csrOf(m *Matrix) *CSR {
	b := NewSparseBuilder(m.Rows())
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if v := m.At(i, j); v != 0 {
				b.Add(i, j, v)
			}
		}
	}
	return b.Build()
}

// beRun steps an original-order state n times under constant power
// through a BackwardEuler built with order perm (nil: natural),
// permuting in and out of elimination order.
func beRun(t *testing.T, be *BackwardEuler, perm []int, state, p []float64, n int) []float64 {
	t.Helper()
	if perm == nil {
		perm = make([]int, len(state))
		for i := range perm {
			perm[i] = i
		}
	}
	x := make([]float64, len(state))
	pp := make([]float64, len(p))
	for k, v := range perm {
		x[k], pp[k] = state[v], p[v]
	}
	for i := 0; i < n; i++ {
		if err := be.StepInto(x, pp); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]float64, len(x))
	for k, v := range perm {
		out[v] = x[k]
	}
	return out
}

// RK4Step advances C·dT/dt = p − G·t by one explicit classical
// Runge-Kutta step of size dt and returns the new state. Explicit
// integration of a stiff RC network needs small dt; it exists to
// cross-validate the backward-Euler stepper.
func RK4Step(g *Matrix, c, t, p []float64, dt float64) []float64 {
	deriv := func(state []float64) []float64 {
		gt := g.MulVec(state)
		d := make([]float64, len(state))
		for i := range d {
			d[i] = (p[i] - gt[i]) / c[i]
		}
		return d
	}
	addScaled := func(base []float64, s float64, v []float64) []float64 {
		out := make([]float64, len(base))
		for i := range out {
			out[i] = base[i] + s*v[i]
		}
		return out
	}
	k1 := deriv(t)
	k2 := deriv(addScaled(t, dt/2, k1))
	k3 := deriv(addScaled(t, dt/2, k2))
	k4 := deriv(addScaled(t, dt, k3))
	out := make([]float64, len(t))
	for i := range out {
		out[i] = t[i] + dt/6*(k1[i]+2*k2[i]+2*k3[i]+k4[i])
	}
	return out
}

// A single RC node: C·dT/dt = P − G·T has the closed form
// T(t) = P/G + (T0 − P/G)·exp(−G·t/C).
func TestBackwardEulerSingleNodeConvergesToAnalytic(t *testing.T) {
	g := NewMatrixFrom(1, 1, []float64{2.0}) // G = 2 W/K
	c := []float64{4.0}                      // C = 4 J/K
	p := []float64{10.0}                     // P = 10 W
	dt := 0.001
	be, err := NewBackwardEuler(csrOf(g), c, dt, nil)
	if err != nil {
		t.Fatal(err)
	}
	steps := 2000
	state := beRun(t, be, nil, []float64{0}, p, steps)
	tEnd := float64(steps) * dt
	analytic := 5.0 + (0-5.0)*math.Exp(-2.0*tEnd/4.0)
	if !almostEq(state[0], analytic, 0.01) {
		t.Errorf("T(%v) = %v, analytic %v", tEnd, state[0], analytic)
	}
}

// TestBackwardEulerChrobakMap pins the one-node map at C/dt = G: the
// implicit step (C/dt + G)·T′ = C/dt·T + P collapses to
// T′ = (T + h)/2 with h = P/G, the closed-form map of Chrobak et al.
// The values are exact binary fractions, so the step must be exact.
func TestBackwardEulerChrobakMap(t *testing.T) {
	g := NewMatrixFrom(1, 1, []float64{2}) // G = 2 W/K
	c := []float64{4}                      // C = 4 J/K, dt = 2 s → C/dt = G
	be, err := NewBackwardEuler(csrOf(g), c, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, p := []float64{3}, []float64{10} // h = P/G = 5
	for i, want := range []float64{4, 4.5, 4.75, 4.875} {
		if err := be.StepInto(x, p); err != nil {
			t.Fatal(err)
		}
		if x[0] != want {
			t.Fatalf("step %d: T′ = %v, want (T + h)/2 = %v", i, x[0], want)
		}
	}
}

func TestBackwardEulerReachesSteadyState(t *testing.T) {
	// Two coupled nodes; at steady state G·T = P.
	g := NewMatrixFrom(2, 2, []float64{3, -1, -1, 2})
	c := []float64{1, 1}
	p := []float64{5, 0}
	be, err := NewBackwardEuler(csrOf(g), c, 0.05, nil)
	if err != nil {
		t.Fatal(err)
	}
	state := beRun(t, be, nil, []float64{0, 0}, p, 5000)
	want, err := SolveLU(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(state, want, 1e-6) {
		t.Errorf("steady state = %v, want %v", state, want)
	}
}

func TestBackwardEulerStability(t *testing.T) {
	// Huge step on a stiff system must not blow up (unconditional stability).
	g := NewMatrixFrom(2, 2, []float64{1000, -1, -1, 1000})
	c := []float64{1e-3, 1e-3}
	p := []float64{1, 1}
	be, err := NewBackwardEuler(csrOf(g), c, 10.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	state := []float64{100, -100}
	for i := 0; i < 50; i++ {
		if err := be.StepInto(state, p); err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(state[0]) || math.Abs(state[0]) > 1e6 {
			t.Fatalf("diverged at step %d: %v", i, state)
		}
	}
}

func TestBackwardEulerAgreesWithRK4(t *testing.T) {
	g := NewMatrixFrom(2, 2, []float64{5, -2, -2, 4})
	c := []float64{2, 3}
	p := []float64{7, 1}
	dt := 1e-4
	be, err := NewBackwardEuler(csrOf(g), c, dt, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0, 0}
	rk := []float64{0, 0}
	for i := 0; i < 5000; i++ {
		if err := be.StepInto(x, p); err != nil {
			t.Fatal(err)
		}
		rk = RK4Step(g, c, rk, p, dt)
	}
	if !vecAlmostEq(x, rk, 1e-3) {
		t.Errorf("backward Euler %v vs RK4 %v", x, rk)
	}
}

func TestBackwardEulerStepperValidation(t *testing.T) {
	g := csrOf(Identity(2))
	c := []float64{1, 1}
	cases := []struct {
		name string
		f    func() error
	}{
		{"bad ordering", func() error {
			_, err := NewBackwardEuler(g, c, 0.1, []int{0, 0})
			return err
		}},
		{"cap length", func() error {
			_, err := NewBackwardEuler(g, []float64{1}, 0.1, nil)
			return err
		}},
		{"zero dt", func() error {
			_, err := NewBackwardEuler(g, c, 0, nil)
			return err
		}},
		{"negative capacitance", func() error {
			_, err := NewBackwardEuler(g, []float64{1, -1}, 0.1, nil)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.f() == nil {
				t.Error("want error, got nil")
			}
		})
	}
	be, err := NewBackwardEuler(g, c, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if be.Dt() != 0.1 {
		t.Errorf("Dt = %v", be.Dt())
	}
	if err := be.StepInto([]float64{1}, []float64{1, 1}); err == nil {
		t.Error("StepInto with short state should error")
	}
}

// denseBEStep is the dense reference step: solve (C/dt + G)·x′ =
// C/dt·x + p with a dense Cholesky factor of the assembled left side.
func denseBEStep(t *testing.T, chol *Cholesky, c []float64, dt float64, x, p []float64) {
	t.Helper()
	rhs := make([]float64, len(x))
	for i := range rhs {
		rhs[i] = c[i]/dt*x[i] + p[i]
	}
	if err := chol.SolveInto(x, rhs); err != nil {
		t.Fatal(err)
	}
}

// TestStepIntoMatchesStepAndDoesNotAllocate checks the sparse step
// against the dense Cholesky reference step, in natural and in
// fill-reducing order, and that stepping never allocates.
func TestStepIntoMatchesStepAndDoesNotAllocate(t *testing.T) {
	gd, ga := gridLaplacian(4, 5, 1.5, 0.2)
	n := ga.N()
	c := make([]float64, n)
	p := make([]float64, n)
	for i := range c {
		c[i] = 0.5 + float64(i%3)
		p[i] = float64(i % 4)
	}
	const dt = 0.3
	lhs := gd.Clone()
	for i := 0; i < n; i++ {
		lhs.Add(i, i, c[i]/dt)
	}
	chol, err := FactorCholesky(lhs)
	if err != nil {
		t.Fatal(err)
	}
	for _, perm := range [][]int{nil, MinDegreeOrdering(ga)} {
		be, err := NewBackwardEuler(ga, c, dt, perm)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, n)
		for i := 0; i < 40; i++ {
			denseBEStep(t, chol, c, dt, want, p)
		}
		got := beRun(t, be, perm, make([]float64, n), p, 40)
		if !vecAlmostEq(got, want, 1e-12) {
			t.Errorf("perm %v: sparse step %v, dense reference %v", perm != nil, got, want)
		}
		x := make([]float64, n)
		if allocs := testing.AllocsPerRun(100, func() {
			if err := be.StepInto(x, p); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("StepInto allocates %v per run", allocs)
		}
	}
}

// TestBackwardEulerSharedFactorConcurrent steps several states against
// one factor from concurrent goroutines; each trajectory must be
// bitwise the serial one (the factor is read-only while stepping).
func TestBackwardEulerSharedFactorConcurrent(t *testing.T) {
	_, ga := gridLaplacian(6, 6, 1, 0.05)
	n := ga.N()
	c := make([]float64, n)
	for i := range c {
		c[i] = 1 + float64(i%5)
	}
	be, err := NewBackwardEuler(ga, c, 0.2, MinDegreeOrdering(ga))
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int) []float64 {
		x := make([]float64, n)
		p := make([]float64, n)
		p[seed%n] = float64(seed + 1)
		for i := 0; i < 200; i++ {
			if err := be.StepInto(x, p); err != nil {
				t.Error(err)
			}
		}
		return x
	}
	const workers = 8
	serial := make([][]float64, workers)
	for w := range serial {
		serial[w] = run(w)
	}
	got := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = run(w)
		}(w)
	}
	wg.Wait()
	for w := range got {
		if !vecAlmostEq(got[w], serial[w], 0) {
			t.Fatalf("worker %d: concurrent trajectory differs from serial", w)
		}
	}
}

// TestStepManyIntoMatchesStepInto checks that batched stepping is
// bitwise m independent StepInto calls.
func TestStepManyIntoMatchesStepInto(t *testing.T) {
	_, ga := gridLaplacian(5, 4, 1.2, 0.1)
	n := ga.N()
	c := make([]float64, n)
	for i := range c {
		c[i] = 1 + float64(i%4)
	}
	be, err := NewBackwardEuler(ga, c, 0.25, MinDegreeOrdering(ga))
	if err != nil {
		t.Fatal(err)
	}
	const m = 3
	single := make([][]float64, m)
	ps := make([][]float64, m)
	x := make([]float64, n*m)
	p := make([]float64, n*m)
	for r := range single {
		single[r] = make([]float64, n)
		ps[r] = make([]float64, n)
		for k := range ps[r] {
			ps[r][k] = float64((k*(r+2))%5) * 0.7
			p[k*m+r] = ps[r][k]
		}
	}
	for step := 0; step < 30; step++ {
		for r := range single {
			if err := be.StepInto(single[r], ps[r]); err != nil {
				t.Fatal(err)
			}
		}
		if err := be.StepManyInto(x, p, m); err != nil {
			t.Fatal(err)
		}
		for r := range single {
			for k, v := range single[r] {
				if x[k*m+r] != v {
					t.Fatalf("step %d state %d node %d: batched %v, single %v", step, r, k, x[k*m+r], v)
				}
			}
		}
	}
	if err := be.StepManyInto(x[:n], p, m); err == nil {
		t.Error("short batched state accepted")
	}
	if err := be.StepManyInto(x, p, 0); err == nil {
		t.Error("zero batch width accepted")
	}
}
