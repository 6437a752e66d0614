package hotspot

import (
	"math"
	"sync"
	"testing"

	"thermalsched/internal/floorplan"
	"thermalsched/internal/linalg"
)

func TestTransientStartsAtAmbient(t *testing.T) {
	m := model4(t)
	tr, err := m.NewTransient(0.01)
	if err != nil {
		t.Fatal(err)
	}
	temps := tr.Temps()
	if math.Abs(temps.Max()-DefaultConfig().AmbientC) > 1e-9 {
		t.Errorf("initial temp %v, want ambient", temps.Max())
	}
	if tr.Time() != 0 {
		t.Errorf("initial time %v", tr.Time())
	}
}

func TestTransientConvergesToSteadyState(t *testing.T) {
	m := model4(t)
	power := map[string]float64{"pe0": 4, "pe1": 2, "pe2": 1, "pe3": 3}
	want, err := m.SteadyState(power)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.NewTransient(0.5)
	if err != nil {
		t.Fatal(err)
	}
	var got Temps
	// The sink has hundreds of J/K and ~2 K/W to ambient: settle for a
	// long simulated time.
	for i := 0; i < 20000; i++ {
		got, err = tr.Step(power)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range got.Values() {
		if math.Abs(v-want.Values()[i]) > 0.05 {
			t.Errorf("block %d transient %v vs steady %v", i, v, want.Values()[i])
		}
	}
}

func TestTransientMonotoneWarmup(t *testing.T) {
	m := model4(t)
	tr, err := m.NewTransient(0.1)
	if err != nil {
		t.Fatal(err)
	}
	power := map[string]float64{"pe0": 5}
	prev := -math.MaxFloat64
	for i := 0; i < 100; i++ {
		temps, err := tr.Step(power)
		if err != nil {
			t.Fatal(err)
		}
		if max := temps.Max(); max < prev-1e-9 {
			t.Fatalf("warm-up not monotone at step %d: %v < %v", i, max, prev)
		} else {
			prev = max
		}
	}
	if math.Abs(tr.Time()-10.0) > 1e-9 {
		t.Errorf("Time = %v, want 10", tr.Time())
	}
}

func TestTransientCooldown(t *testing.T) {
	m := model4(t)
	tr, err := m.NewTransient(0.1)
	if err != nil {
		t.Fatal(err)
	}
	hot := map[string]float64{"pe0": 10}
	for i := 0; i < 200; i++ {
		if _, err := tr.Step(hot); err != nil {
			t.Fatal(err)
		}
	}
	peakAfterHeat := tr.Temps().Max()
	for i := 0; i < 200; i++ {
		if _, err := tr.Step(nil); err != nil {
			t.Fatal(err)
		}
	}
	peakAfterCool := tr.Temps().Max()
	if peakAfterCool >= peakAfterHeat {
		t.Errorf("cooling failed: %v -> %v", peakAfterHeat, peakAfterCool)
	}
	tr.Reset()
	if tr.Time() != 0 || math.Abs(tr.Temps().Max()-DefaultConfig().AmbientC) > 1e-9 {
		t.Error("Reset did not restore ambient state")
	}
}

func TestTransientRunAndErrors(t *testing.T) {
	m := model4(t)
	tr, err := m.NewTransient(0.05)
	if err != nil {
		t.Fatal(err)
	}
	samples := [][]float64{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}}
	traj, err := tr.Run(samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(traj) != 3 {
		t.Fatalf("trajectory length %d", len(traj))
	}
	if _, err := tr.StepVec([]float64{1}); err == nil {
		t.Error("short power vector accepted")
	}
	if _, err := tr.Step(map[string]float64{"bogus": 1}); err == nil {
		t.Error("unknown block accepted")
	}
	if _, err := m.NewTransient(-1); err == nil {
		t.Error("negative dt accepted")
	}
}

func TestStepVecIntoMatchesStepVecAndDoesNotAllocate(t *testing.T) {
	m := model4(t)
	trA, err := m.NewTransient(0.01)
	if err != nil {
		t.Fatal(err)
	}
	trB, err := m.NewTransient(0.01)
	if err != nil {
		t.Fatal(err)
	}
	p := []float64{6, 1, 0, 3}
	dst := make([]float64, m.NumBlocks())
	for step := 0; step < 25; step++ {
		want, err := trA.StepVec(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := trB.StepVecInto(dst, p); err != nil {
			t.Fatal(err)
		}
		wv := want.Values()
		for i := range dst {
			if dst[i] != wv[i] {
				t.Fatalf("step %d block %d: StepVecInto %v, StepVec %v", step, i, dst[i], wv[i])
			}
		}
	}
	if err := trB.StepVecInto(dst, []float64{1}); err == nil {
		t.Error("short power vector accepted")
	}
	if err := trB.StepVecInto(dst[:1], p); err == nil {
		t.Error("short dst accepted")
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := trB.StepVecInto(dst, p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("StepVecInto allocates %v per run", n)
	}
}

// A transient warm-started from SteadyNodeRise is at a fixed point:
// stepping it under the same power must not move the block temperatures,
// and they must match the steady-state solve exactly.
func TestSetRiseWarmStartIsFixedPoint(t *testing.T) {
	m := model4(t)
	power := []float64{4, 2, 1, 3}
	rise, err := m.SteadyNodeRise(power)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.SteadyStateVec(power)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.NewTransient(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetRise(rise); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, m.NumBlocks())
	for step := 0; step < 10; step++ {
		if err := tr.StepVecInto(got, power); err != nil {
			t.Fatal(err)
		}
	}
	for i, name := range m.BlockNames() {
		w, _ := want.Of(name)
		if math.Abs(got[i]-w) > 1e-9 {
			t.Errorf("block %s drifted to %v from steady %v", name, got[i], w)
		}
	}

	// Shape errors are rejected.
	if _, err := m.SteadyNodeRise(power[:2]); err == nil {
		t.Error("short power vector accepted")
	}
	if err := tr.SetRise(rise[:3]); err == nil {
		t.Error("short rise vector accepted")
	}
}

// nodeRise returns the full node state in node order.
func (tr *Transient) nodeRise() []float64 {
	out := make([]float64, len(tr.state))
	for i := range out {
		out[i] = tr.state[tr.pos[i]]
	}
	return out
}

// TestTransientEnergyBalance checks backward Euler's exact discrete
// energy balance. Summing (C/dt + G)·T′ = C/dt·T + P over all nodes,
// every internal conductance cancels (G's column sums are zero except
// the sink's convection leg), leaving
//
//	Σ P·dt = 1ᵀC·ΔT + dt·g_conv·T′_sink
//
// for every step: the energy injected is stored or convected away.
func TestTransientEnergyBalance(t *testing.T) {
	m := solverModel(t, 16, SolverDense)
	const dt = 0.05
	tr, err := m.NewTransient(dt)
	if err != nil {
		t.Fatal(err)
	}
	gConv := 1 / m.cfg.ConvectionResistance
	sink := m.total - 1
	p := make([]float64, m.NumBlocks())
	temps := make([]float64, m.NumBlocks())
	for step := 0; step < 400; step++ {
		var injected float64
		for i := range p {
			p[i] = float64((i*7+step)%5) * 0.8
			injected += p[i] * dt
		}
		before := tr.nodeRise()
		if err := tr.StepVecInto(temps, p); err != nil {
			t.Fatal(err)
		}
		after := tr.nodeRise()
		var stored float64
		for i, c := range m.caps {
			stored += c * (after[i] - before[i])
		}
		convected := dt * gConv * after[sink]
		if got := stored + convected; math.Abs(got-injected) > 1e-9*injected {
			t.Fatalf("step %d: stored %v + convected %v = %v, injected %v", step, stored, convected, got, injected)
		}
	}
}

// TestTransientConvergesToSteadyNodeRise steps a constant load until
// every node — die blocks, spreader regions, ring and sink — settles on
// the steady-state solve of the full network.
func TestTransientConvergesToSteadyNodeRise(t *testing.T) {
	m := solverModel(t, 16, SolverSparse)
	p := make([]float64, m.NumBlocks())
	for i := range p {
		p[i] = 0.5 + float64(i%4)
	}
	want, err := m.SteadyNodeRise(p)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.NewTransient(50)
	if err != nil {
		t.Fatal(err)
	}
	temps := make([]float64, m.NumBlocks())
	for i := 0; i < 4000; i++ {
		if err := tr.StepVecInto(temps, p); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range tr.nodeRise() {
		if math.Abs(v-want[i]) > 1e-9*want[i] {
			t.Errorf("node %d rise %v, steady %v", i, v, want[i])
		}
	}
}

// TestReferenceModelStepsAsDenseCholesky pins the parity reference: a
// reference model's transient tracks the in-test dense Cholesky
// stepper of Conductance() + C/dt to 1e-12 K over a long trajectory,
// and the production (min-degree) stepper tracks both to 1e-9 K.
func TestReferenceModelStepsAsDenseCholesky(t *testing.T) {
	fp, err := floorplan.Grid("b", 16, 4e-6)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewReferenceModel(fp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prod, err := NewModel(fp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const dt = 0.02
	lhs := ref.Conductance()
	for i, c := range ref.caps {
		lhs.Add(i, i, c/dt)
	}
	chol, err := linalg.FactorCholesky(lhs)
	if err != nil {
		t.Fatal(err)
	}
	refTr, err := ref.NewTransient(dt)
	if err != nil {
		t.Fatal(err)
	}
	prodTr, err := prod.NewTransient(dt)
	if err != nil {
		t.Fatal(err)
	}
	dense := make([]float64, ref.total)
	rhs := make([]float64, ref.total)
	got := make([]float64, ref.NumBlocks())
	gotProd := make([]float64, ref.NumBlocks())
	p := make([]float64, ref.NumBlocks())
	for step := 0; step < 500; step++ {
		for i := range p {
			p[i] = float64((i+step/50)%3) * 2
		}
		for i := range rhs {
			rhs[i] = ref.caps[i] / dt * dense[i]
			if i < len(p) {
				rhs[i] += p[i]
			}
		}
		if err := chol.SolveInto(dense, rhs); err != nil {
			t.Fatal(err)
		}
		if err := refTr.StepVecInto(got, p); err != nil {
			t.Fatal(err)
		}
		if err := prodTr.StepVecInto(gotProd, p); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if want := dense[i] + ref.cfg.AmbientC; math.Abs(got[i]-want) > 1e-12 {
				t.Fatalf("step %d block %d: reference %v, dense Cholesky %v", step, i, got[i], want)
			}
			if math.Abs(gotProd[i]-dense[i]-ref.cfg.AmbientC) > 1e-9 {
				t.Fatalf("step %d block %d: production %v, dense Cholesky %v", step, i, gotProd[i], dense[i]+ref.cfg.AmbientC)
			}
		}
	}
}

// TestTransientsShareOneFactor checks the per-model factor cache: one
// factor per dt, shared by every Transient, bounded in count.
func TestTransientsShareOneFactor(t *testing.T) {
	m := model4(t)
	a, err := m.NewTransient(0.1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.NewTransient(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if a.be != b.be {
		t.Error("two transients at one dt built separate factors")
	}
	for i := 1; i <= 2*maxStepFactors; i++ {
		if _, err := m.NewTransient(float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.stepFacts) != maxStepFactors {
		t.Errorf("%d cached factors, bound %d", len(m.stepFacts), maxStepFactors)
	}
}

// TestTransientSharedFactorConcurrent steps transients that share one
// cached factor from concurrent goroutines; every trajectory must be
// bitwise the serial one. The race job runs it under -race.
func TestTransientSharedFactorConcurrent(t *testing.T) {
	m := solverModel(t, 16, SolverDense)
	const dt, steps, workers = 0.05, 300, 8
	run := func(w int) []float64 {
		tr, err := m.NewTransient(dt)
		if err != nil {
			t.Error(err)
			return nil
		}
		p := make([]float64, m.NumBlocks())
		temps := make([]float64, m.NumBlocks())
		traj := make([]float64, 0, steps*len(temps))
		for s := 0; s < steps; s++ {
			p[(w+s/20)%len(p)] = float64(w + 1)
			if err := tr.StepVecInto(temps, p); err != nil {
				t.Error(err)
				return nil
			}
			traj = append(traj, temps...)
		}
		return traj
	}
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
		if len(got[w]) != len(serial[w]) {
			t.Fatalf("worker %d: trajectory length %d, serial %d", w, len(got[w]), len(serial[w]))
		}
		for i := range got[w] {
			if got[w][i] != serial[w][i] {
				t.Fatalf("worker %d sample %d: concurrent %v, serial %v", w, i, got[w][i], serial[w][i])
			}
		}
	}
}

// TestSelfStepResponsesMatchTransients checks the batched unit-step
// responses against one Transient per block, bitwise.
func TestSelfStepResponsesMatchTransients(t *testing.T) {
	m := solverModel(t, 9, SolverDense)
	const dt, steps = 0.1, 50
	blocks := []int{4, 0, 8}
	curves, err := m.SelfStepResponses(dt, blocks, steps)
	if err != nil {
		t.Fatal(err)
	}
	for r, b := range blocks {
		tr, err := m.NewTransient(dt)
		if err != nil {
			t.Fatal(err)
		}
		unit := make([]float64, m.NumBlocks())
		unit[b] = 1
		temps := make([]float64, m.NumBlocks())
		for s := 0; s < steps; s++ {
			if err := tr.StepVecInto(temps, unit); err != nil {
				t.Fatal(err)
			}
			if want := tr.nodeRise()[b]; curves[r][s] != want {
				t.Fatalf("block %d step %d: batched %v, transient %v", b, s, curves[r][s], want)
			}
		}
	}
	if _, err := m.SelfStepResponses(dt, []int{m.NumBlocks()}, 1); err == nil {
		t.Error("out-of-range block accepted")
	}
	if _, err := m.SelfStepResponses(0, blocks, 1); err == nil {
		t.Error("zero dt accepted")
	}
}
