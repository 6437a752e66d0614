package runtime

import (
	"context"
	"math"
	"testing"

	"thermalsched/internal/coloop"
	"thermalsched/internal/cosynth"
	"thermalsched/internal/dtm"
	"thermalsched/internal/sched"
	"thermalsched/internal/sim"
	"thermalsched/internal/taskgraph"
	"thermalsched/internal/techlib"
)

func platformRun(t *testing.T, bench string, policy sched.Policy) *cosynth.Result {
	t.Helper()
	lib, err := techlib.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	g, err := taskgraph.Benchmark(bench)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cosynth.RunPlatform(g, lib, cosynth.PlatformConfig{Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func baseConfig() Config {
	return Config{DT: 1, TimeScale: 0.1, Exec: sim.Options{MinFactor: 1}}
}

// With no controller the closed-loop executor is exactly the open-loop
// discrete-event executor: same realization, same dispatch rule, so the
// same makespan and energy.
func TestUnthrottledMatchesOpenLoopExecutor(t *testing.T) {
	res := platformRun(t, "Bm1", sched.ThermalAware)
	for _, seed := range []int64{0, 1, 7} {
		cfg := baseConfig()
		cfg.Exec = sim.Options{MinFactor: 0.6, Seed: seed}
		closed, err := Simulate(context.Background(), res.Schedule, res.Model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := closed.Validate(res.Schedule); err != nil {
			t.Fatal(err)
		}
		open, err := sim.Execute(res.Schedule, cfg.Exec)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(closed.Makespan-open.Makespan) > 1e-6 {
			t.Errorf("seed %d: closed-loop makespan %g, open-loop %g", seed, closed.Makespan, open.Makespan)
		}
		if math.Abs(closed.Energy-open.Energy) > 1e-6 {
			t.Errorf("seed %d: closed-loop energy %g, open-loop %g", seed, closed.Energy, open.Energy)
		}
		if closed.ThrottleTime != 0 {
			t.Errorf("seed %d: unthrottled run reports throttle time %g", seed, closed.ThrottleTime)
		}
	}
}

// The closed-loop property of the acceptance criteria: with a toggle
// controller triggered below the schedule's peak steady-state
// temperature, throttling stretches execution, so the simulated
// makespan strictly exceeds the unthrottled makespan.
func TestThrottlingStretchesMakespan(t *testing.T) {
	res := platformRun(t, "Bm1", sched.ThermalAware)
	peak := res.Metrics.MaxTemp
	trigger := 60.0
	if trigger >= peak {
		t.Fatalf("test trigger %g not below steady-state peak %g", trigger, peak)
	}

	free, err := Simulate(context.Background(), res.Schedule, res.Model, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := dtm.NewToggleController(trigger, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := dtm.Supervise(ctrl, dtm.DefaultLadder)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	cfg.Supervisor = sup
	throttled, err := Simulate(context.Background(), res.Schedule, res.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := throttled.Validate(res.Schedule); err != nil {
		t.Fatal(err)
	}
	if throttled.ThrottleTime <= 0 {
		t.Fatalf("trigger %g below peak %g yet no throttling occurred", trigger, peak)
	}
	if !(throttled.Makespan > free.Makespan) {
		t.Errorf("throttled makespan %g not strictly above unthrottled %g", throttled.Makespan, free.Makespan)
	}
	// Energy is conserved under throttling: work stretches, power scales.
	if math.Abs(throttled.Energy-free.Energy) > 1e-6*free.Energy {
		t.Errorf("throttling changed delivered energy: %g vs %g", throttled.Energy, free.Energy)
	}
}

// Warm-starting from the schedule's steady-state operating point makes
// the very first steps run hot, so a trigger below the steady peak
// throttles immediately.
func TestWarmStartBeginsAtOperatingPoint(t *testing.T) {
	res := platformRun(t, "Bm2", sched.ThermalAware)
	cfg := baseConfig()
	cfg.WarmStart = true
	r, err := Simulate(context.Background(), res.Schedule, res.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.PeakTempC < res.Metrics.MaxTemp-15 {
		t.Errorf("warm-started peak %g far below steady-state peak %g", r.PeakTempC, res.Metrics.MaxTemp)
	}
	cold, err := Simulate(context.Background(), res.Schedule, res.Model, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !(r.PeakTempC > cold.PeakTempC) {
		t.Errorf("warm start peak %g not above cold start peak %g", r.PeakTempC, cold.PeakTempC)
	}
}

// A controller throttled to factor 0 with an unreachable un-throttle
// band stalls the run; the step bound must turn that into an error
// rather than an infinite loop.
func TestStalledRunHitsStepBound(t *testing.T) {
	res := platformRun(t, "Bm1", sched.ThermalAware)
	ctrl, err := dtm.NewToggleController(46, 1000, 0) // throttle to zero, never release
	if err != nil {
		t.Fatal(err)
	}
	sup, err := dtm.Supervise(ctrl, dtm.DefaultLadder)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	cfg.Supervisor = sup
	cfg.WarmStart = true // start hot so the trigger fires immediately
	cfg.MaxSteps = 2000
	if _, err := Simulate(context.Background(), res.Schedule, res.Model, cfg); err == nil {
		t.Fatal("standstill run returned without error")
	}
}

func TestSimulateCancellation(t *testing.T) {
	res := platformRun(t, "Bm1", sched.ThermalAware)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Simulate(ctx, res.Schedule, res.Model, baseConfig()); err == nil {
		t.Fatal("cancelled simulation returned without error")
	}
}

func TestConfigValidation(t *testing.T) {
	res := platformRun(t, "Bm1", sched.ThermalAware)
	bad := []Config{
		{DT: 0, TimeScale: 1, Exec: sim.Options{MinFactor: 1}},
		{DT: 1, TimeScale: 0, Exec: sim.Options{MinFactor: 1}},
		{DT: 1, TimeScale: 1, Exec: sim.Options{MinFactor: 0}},
		{DT: 1, TimeScale: 1, MaxSteps: -1, Exec: sim.Options{MinFactor: 1}},
	}
	for i, cfg := range bad {
		if _, err := Simulate(context.Background(), res.Schedule, res.Model, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// Supervisor state must never leak between Monte-Carlo replicas: the
// core resets the supervisor before stepping, so running replica N on a
// supervisor that already served N−1 other replicas is byte-identical
// to running it on a fresh instance. Exercised for the two stateful
// kinds — the PI controller's integral term and the admit controller's
// retry-after embargoes.
func TestSupervisorResetHygieneAcrossReplicas(t *testing.T) {
	res := platformRun(t, "Bm1", sched.ThermalAware)
	supervisors := map[string]func() dtm.Supervisor{
		"pi": func() dtm.Supervisor {
			ctrl, err := dtm.NewPIController(70, 0.05, 0.01, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			sup, err := dtm.Supervise(ctrl, dtm.DefaultLadder)
			if err != nil {
				t.Fatal(err)
			}
			return sup
		},
		"admit": func() dtm.Supervisor {
			sup, err := dtm.NewAdmitController(dtm.DefaultLadder, 0.7, 0.4, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			return sup
		},
	}
	run := func(sup dtm.Supervisor, seed int64) *Result {
		t.Helper()
		cfg := baseConfig()
		cfg.Supervisor = sup
		cfg.WarmStart = true // start hot so both kinds accumulate state
		cfg.Exec = sim.Options{MinFactor: 0.6, Seed: seed}
		r, err := Simulate(context.Background(), res.Schedule, res.Model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for name, build := range supervisors {
		t.Run(name, func(t *testing.T) {
			// Fresh instance per replica: the leak-free reference.
			var want []*Result
			for seed := int64(0); seed < 3; seed++ {
				want = append(want, run(build(), seed))
			}
			// One shared instance across all replicas in sequence.
			shared := build()
			for seed := int64(0); seed < 3; seed++ {
				got := run(shared, seed)
				ref := want[seed]
				if got.Makespan != ref.Makespan || got.PeakTempC != ref.PeakTempC ||
					got.ThrottleTime != ref.ThrottleTime || got.Energy != ref.Energy ||
					got.AdmissionDenials != ref.AdmissionDenials || got.Steps != ref.Steps {
					t.Errorf("seed %d: replica after %d prior runs differs from fresh instance:\n got %+v\nwant %+v",
						seed, seed, got, ref)
				}
				for id := range ref.Records {
					if got.Records[id] != ref.Records[id] {
						t.Errorf("seed %d: record %d differs between shared and fresh supervisor", seed, id)
					}
				}
			}
		})
	}
}

// A forecaster built once and shared read-only across replicas must
// give every replica exactly the run it gets building its own.
func TestSharedForecasterMatchesPerRun(t *testing.T) {
	res := platformRun(t, "Bm1", sched.ThermalAware)
	run := func(seed int64, forecast *coloop.RiseForecaster) *Result {
		t.Helper()
		sup, err := dtm.NewAdmitController(dtm.DefaultLadder, 0.7, 0.4, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		cfg := baseConfig()
		cfg.Supervisor = sup
		cfg.WarmStart = true
		cfg.Exec = sim.Options{MinFactor: 0.6, Seed: seed}
		cfg.Forecast = forecast
		r, err := Simulate(context.Background(), res.Schedule, res.Model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	shared, err := NewForecaster(res.Schedule, res.Model, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	denials := 0
	for seed := int64(0); seed < 3; seed++ {
		want, got := run(seed, nil), run(seed, shared)
		denials += want.AdmissionDenials
		if got.Makespan != want.Makespan || got.PeakTempC != want.PeakTempC ||
			got.AdmissionDenials != want.AdmissionDenials || got.Steps != want.Steps {
			t.Errorf("seed %d: shared forecaster run %+v, own forecaster %+v", seed, got, want)
		}
		for id := range want.Records {
			if got.Records[id] != want.Records[id] {
				t.Errorf("seed %d: record %d differs under the shared forecaster", seed, id)
			}
		}
	}
	if denials == 0 {
		t.Error("no admission denials: the forecaster was never consulted against a bound")
	}
}

// ctgSchedule builds a schedule for a conditional task graph on two PEs
// whose floorplan blocks are named after the PEs, so the runtime can map
// them. t0 branches to t1 (p=0.6) or t2 (p=0.4); both lead to t3.
func ctgPlatform(t *testing.T) (*sched.Schedule, *cosynth.Result) {
	t.Helper()
	lib, err := techlib.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	g := taskgraph.NewGraph("ctg", 2000)
	for i := 0; i < 4; i++ {
		if err := g.AddTask(taskgraph.Task{ID: i, Name: "t", Type: i % taskgraph.NumTaskTypes}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []taskgraph.Edge{
		{From: 0, To: 1, Data: 1, Prob: 0.6},
		{From: 0, To: 2, Data: 1, Prob: 0.4},
		{From: 1, To: 3, Data: 1},
		{From: 2, To: 3, Data: 1},
	} {
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	res, err := cosynth.RunPlatform(g, lib, cosynth.PlatformConfig{Policy: sched.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	return res.Schedule, res
}

// Conditional runs through the closed loop: PEs that only host
// skipped-branch tasks draw exactly zero power, and the seeded
// realization is deterministic — two runs of the same replica seed are
// bit-identical, and the branch draw matches the open-loop executor's.
func TestConditionalSkippedBranchZeroPower(t *testing.T) {
	s, res := ctgPlatform(t)
	sawSkip := false
	for seed := int64(0); seed < 10; seed++ {
		cfg := baseConfig()
		cfg.Exec = sim.Options{MinFactor: 1, Seed: seed, Conditional: true}
		r1, err := Simulate(context.Background(), s, res.Model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r1.Validate(s); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		open, err := sim.Execute(s, cfg.Exec)
		if err != nil {
			t.Fatal(err)
		}
		for id := range r1.Records {
			if r1.Records[id].Skipped != open.Records[id].Skipped {
				t.Fatalf("seed %d: task %d branch draw differs from open-loop executor", seed, id)
			}
		}
		// Any PE that hosts only skipped tasks must contribute zero
		// power/energy to the thermal trace.
		executedOn := make([]bool, len(s.Arch.PEs))
		assignedOn := make([]bool, len(s.Arch.PEs))
		for _, rec := range r1.Records {
			assignedOn[rec.PE] = true
			if !rec.Skipped {
				executedOn[rec.PE] = true
			}
		}
		for pe := range executedOn {
			if assignedOn[pe] && !executedOn[pe] {
				sawSkip = true
				if r1.PerPEEnergy[pe] != 0 {
					t.Errorf("seed %d: PE %d hosts only skipped tasks yet drew %g energy",
						seed, pe, r1.PerPEEnergy[pe])
				}
			}
		}
		// Deterministic-seed contract: replaying the same seed is
		// bit-identical.
		r2, err := Simulate(context.Background(), s, res.Model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Makespan != r2.Makespan || r1.PeakTempC != r2.PeakTempC ||
			r1.ThrottleTime != r2.ThrottleTime || r1.Energy != r2.Energy {
			t.Errorf("seed %d: replay differs: %+v vs %+v", seed, r1, r2)
		}
		for id := range r1.Records {
			if r1.Records[id] != r2.Records[id] {
				t.Errorf("seed %d: record %d differs across replays", seed, id)
			}
		}
	}
	if !sawSkip {
		t.Log("no seed produced a PE with only skipped tasks; zero-power assertion not exercised")
	}
}
