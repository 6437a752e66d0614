package hotspot

import (
	"math"
	"testing"

	"thermalsched/internal/floorplan"
)

func solverModel(t *testing.T, blocks int, solver string) *Model {
	t.Helper()
	fp, err := floorplan.Grid("b", blocks, 4e-6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Solver = solver
	m, err := NewModel(fp, cfg)
	if err != nil {
		t.Fatalf("NewModel(%s): %v", solver, err)
	}
	return m
}

func TestSolverKindNormalization(t *testing.T) {
	var c Config
	if got := c.SolverKind(); got != SolverDense {
		t.Fatalf("SolverKind() = %q for empty Solver, want %q", got, SolverDense)
	}
	c.Solver = SolverSparse
	if got := c.SolverKind(); got != SolverSparse {
		t.Fatalf("SolverKind() = %q, want %q", got, SolverSparse)
	}
}

func TestConfigValidateSolver(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Solver = "cuda"
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted unknown solver")
	}
	for _, s := range append(SolverNames(), "") {
		cfg.Solver = s
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Validate rejected solver %q: %v", s, err)
		}
	}
	cfg.Solver = ""
	cfg.PCGTolerance = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted negative PCGTolerance")
	}
	cfg.PCGTolerance = 1
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted PCGTolerance 1")
	}
	cfg.PCGTolerance = math.NaN()
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted NaN PCGTolerance")
	}
}

// TestConductanceIdenticalAcrossBackends pins the shared-assembly
// property: the conductance matrix is bitwise identical no matter
// which solver backend the model was built for.
func TestConductanceIdenticalAcrossBackends(t *testing.T) {
	dense := solverModel(t, 12, SolverDense)
	sparse := solverModel(t, 12, SolverSparse)
	pcg := solverModel(t, 12, SolverPCG)
	gd, gs, gp := dense.Conductance(), sparse.Conductance(), pcg.Conductance()
	for i := 0; i < gd.Rows(); i++ {
		for j := 0; j < gd.Cols(); j++ {
			if gd.At(i, j) != gs.At(i, j) || gd.At(i, j) != gp.At(i, j) {
				t.Fatalf("G[%d,%d] differs across backends: dense %v sparse %v pcg %v",
					i, j, gd.At(i, j), gs.At(i, j), gp.At(i, j))
			}
		}
	}
	if nnz := dense.ConductanceNNZ(); nnz >= gd.Rows()*gd.Cols() {
		t.Fatalf("conductance NNZ %d not sparse for %d nodes", nnz, gd.Rows())
	}
}

// TestSolverBackendsAgree drives every backend through the full
// steady-state API surface and requires agreement with the dense
// golden reference far inside the documented 1e-6 K contract.
func TestSolverBackendsAgree(t *testing.T) {
	const blocks = 24
	dense := solverModel(t, blocks, SolverDense)
	p := make([]float64, blocks)
	for i := range p {
		p[i] = float64((i*7)%5) * 1.5
	}
	want := make([]float64, blocks)
	if err := dense.SteadyStateInto(want, p); err != nil {
		t.Fatal(err)
	}
	for _, solver := range []string{SolverSparse, SolverPCG} {
		// The sparse direct factorization tracks dense to rounding;
		// PCG is iterative, so it gets the documented contract bound.
		tol := 1e-9
		if solver == SolverPCG {
			tol = 1e-6
		}
		m := solverModel(t, blocks, solver)
		got := make([]float64, blocks)
		if err := m.SteadyStateInto(got, p); err != nil {
			t.Fatalf("%s SteadyStateInto: %v", solver, err)
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > tol {
				t.Fatalf("%s temp[%d] = %v, dense %v (|Δ| = %g)",
					solver, i, got[i], want[i], math.Abs(got[i]-want[i]))
			}
		}
		direct, err := m.SteadyStateDirect(p)
		if err != nil {
			t.Fatalf("%s SteadyStateDirect: %v", solver, err)
		}
		for i, v := range direct.Values() {
			if math.Abs(v-want[i]) > tol {
				t.Fatalf("%s direct temp[%d] = %v, dense %v", solver, i, v, want[i])
			}
		}
		wrow, err := dense.InfluenceRow(3)
		if err != nil {
			t.Fatal(err)
		}
		grow, err := m.InfluenceRow(3)
		if err != nil {
			t.Fatalf("%s InfluenceRow: %v", solver, err)
		}
		for j := range wrow {
			if math.Abs(grow[j]-wrow[j]) > tol {
				t.Fatalf("%s InfluenceRow[3][%d] = %v, dense %v", solver, j, grow[j], wrow[j])
			}
		}
		wr, err := dense.SteadyNodeRise(p)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := m.SteadyNodeRise(p)
		if err != nil {
			t.Fatalf("%s SteadyNodeRise: %v", solver, err)
		}
		for i := range wr {
			if math.Abs(gr[i]-wr[i]) > tol {
				t.Fatalf("%s node rise[%d] = %v, dense %v", solver, i, gr[i], wr[i])
			}
		}
	}
}

// TestSparseBackendTransient checks that transient stepping does not
// depend on the steady-state backend: every backend's model steps with
// the same min-degree sparse factor of C/dt + G, so trajectories are
// bitwise identical across Config.Solver.
func TestSparseBackendTransient(t *testing.T) {
	var want []float64
	for _, solver := range SolverNames() {
		m := solverModel(t, 9, solver)
		tr, err := m.NewTransient(0.01)
		if err != nil {
			t.Fatalf("%s NewTransient: %v", solver, err)
		}
		var temps Temps
		for i := 0; i < 20; i++ {
			if temps, err = tr.Step(map[string]float64{"b0": 10, "b4": 3}); err != nil {
				t.Fatalf("%s Step: %v", solver, err)
			}
		}
		if temps.Max() <= m.Config().AmbientC {
			t.Fatalf("%s transient step did not heat: max %v", solver, temps.Max())
		}
		if want == nil {
			want = temps.Values()
			continue
		}
		for i, v := range temps.Values() {
			if v != want[i] {
				t.Fatalf("%s block %d = %v, dense-backend model %v", solver, i, v, want[i])
			}
		}
	}
}

// TestTruncatedPathsZeroAllocs proves the sparse backend's hot paths
// allocate nothing once the touched influence rows are warm — the
// large-platform counterpart of the PR-2 dense guarantees.
func TestTruncatedPathsZeroAllocs(t *testing.T) {
	for _, solver := range []string{SolverSparse, SolverPCG} {
		m := solverModel(t, 16, solver)
		p := make([]float64, 16)
		p[1], p[6], p[11] = 4, 2.5, 7
		dst := make([]float64, 16)
		if err := m.SteadyStateInto(dst, p); err != nil { // warm the row cache
			t.Fatal(err)
		}
		if _, err := m.InfluenceRow(6); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := m.SteadyStateInto(dst, p); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s SteadyStateInto allocates %v per run after warm-up", solver, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := m.InfluenceRow(6); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s InfluenceRow allocates %v per run after warm-up", solver, n)
		}
	}
}
