package main

import (
	"fmt"
	"math/rand"

	ts "thermalsched"
)

// The seeded request generators. A workload's requests come in blocks:
// block b of seed s is a pure function of (s, b), every block has the
// same composition of sizes and flows (only the seeded details differ),
// and the first blocks double as the warm-up and the determinism probe.
// The program under test only ever sees the generated requests.

// Workload seeds recorded with the benchmark: results quoted in a
// claim use defaultSeed, and a claim is re-checked on heldOutSeed,
// which no change may be tuned against.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

var (
	benchmarks     = []string{"Bm1", "Bm2", "Bm3", "Bm4"}
	platformPolicy = []string{"baseline", "h1", "h2", "h3", "thermal"}
	// powerAware are the policies whose best result the thermal-aware
	// policy is compared against (the paper's heuristics 1-3).
	powerAware = map[string]bool{"h1": true, "h2": true, "h3": true}
)

// blockRand derives the generator for one block; distinct (seed, block)
// pairs give independent streams.
func blockRand(seed int64, block int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(block)*7_919 + 17))
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

func seedPtr(v int64) *int64 { return &v }

// scenarioSpec draws one generated platform scenario of a fixed size;
// the seed varies shape, layout, speed spread and traffic.
func scenarioSpec(rng *rand.Rand, tasks, pes int) ts.ScenarioSpec {
	return ts.ScenarioSpec{
		Name: fmt.Sprintf("g%dx%d", tasks, pes),
		Seed: rng.Int63n(1 << 40),
		Graph: ts.ScenarioGraphParams{
			Shape: pick(rng, []string{ts.ScenarioShapeLayered, ts.ScenarioShapeSeriesParallel}),
			Tasks: tasks,
			CCR:   0.05 + 0.25*rng.Float64(),
		},
		Platform: ts.ScenarioPlatformParams{
			PEs:      pes,
			MinSpeed: 0.5 + 0.3*rng.Float64(),
			MaxSpeed: 1.4 + 0.6*rng.Float64(),
			Layout:   pick(rng, []string{ts.ScenarioLayoutGrid, ts.ScenarioLayoutRow}),
		},
	}
}

// platformSweepBlock: every generated size class (20-200 tasks on 4-16
// PEs) plus Bm1-Bm4, each input under all five ASP policies in a row.
func platformSweepBlock(seed int64, block int) []ts.Request {
	rng := blockRand(seed, block)
	var inputs []func(*ts.Request)
	for _, bm := range benchmarks {
		bm := bm
		inputs = append(inputs, func(r *ts.Request) { r.Benchmark = bm })
	}
	for _, tasks := range []int{20, 50, 100, 200} {
		for _, pes := range []int{4, 8, 16} {
			spec := scenarioSpec(rng, tasks, pes)
			inputs = append(inputs, func(r *ts.Request) { s := spec; r.Scenario = &s })
		}
	}
	var reqs []ts.Request
	for _, in := range inputs {
		for _, p := range platformPolicy {
			r := ts.Request{Flow: ts.FlowPlatform, Policy: p}
			in(&r)
			reqs = append(reqs, r)
		}
	}
	return reqs
}

// cosynthGenerations and cosynthMaxPEs size one co-synthesis request
// (about 75 ms on a 2-CPU host); the engine defaults (30 generations,
// 6 PEs) cost 0.5-2 s each and would leave too few requests per run
// for stable latency percentiles.
const (
	cosynthGenerations = 10
	cosynthMaxPEs      = 4
)

// cosynthesisBlock: Bm1-Bm4 plus two small generated scenarios, each
// request with its own floorplanner seed.
func cosynthesisBlock(seed int64, block int) []ts.Request {
	rng := blockRand(seed, block)
	var reqs []ts.Request
	add := func(r ts.Request) {
		r.Flow = ts.FlowCoSynthesis
		r.Policy = "thermal"
		r.FloorplanGenerations = cosynthGenerations
		r.MaxPEs = cosynthMaxPEs
		r.Seed = seedPtr(rng.Int63n(1 << 40))
		reqs = append(reqs, r)
	}
	for _, bm := range benchmarks {
		add(ts.Request{Benchmark: bm})
	}
	for _, tasks := range []int{10, 20} {
		spec := scenarioSpec(rng, tasks, 4)
		add(ts.Request{Scenario: &spec})
	}
	return reqs
}

// closedLoopBlock: simulate requests under every controller on Bm1-Bm4
// (warm start, minFactor < 1, 8-32 replicas) plus stream requests
// under fifo, greedy and admit on 4, 16 and 64 PEs. The three policies
// of one platform size share a stream seed, so the stream cache hits
// two times in three.
func closedLoopBlock(seed int64, block int) []ts.Request {
	rng := blockRand(seed, block)
	var reqs []ts.Request
	replicas := []int{8, 16, 32}
	i := 0
	for _, bm := range benchmarks {
		for _, ctrl := range []string{"toggle", "pi", "admit", "zigzag"} {
			reqs = append(reqs, ts.Request{
				Flow:      ts.FlowSimulate,
				Benchmark: bm,
				Policy:    pick(rng, []string{"h3", "thermal"}),
				Simulate: &ts.SimulateSpec{
					Controller: ctrl,
					WarmStart:  rng.Intn(2) == 0,
					MinFactor:  0.7 + 0.25*rng.Float64(),
					Seed:       rng.Int63n(1 << 40),
					Replicas:   replicas[i%len(replicas)],
				},
			})
			i++
		}
	}
	for _, pes := range []int{4, 16, 64} {
		spec := ts.StreamSpec{
			Seed:      rng.Int63n(1 << 40),
			MinFactor: 0.7 + 0.25*rng.Float64(),
			SimSeed:   rng.Int63n(1 << 40),
			Platform:  ts.ScenarioPlatformParams{PEs: pes, MinSpeed: 0.7, MaxSpeed: 1.5},
		}
		for _, p := range []string{ts.StreamPolicyFIFO, ts.StreamPolicyGreedy, ts.StreamPolicyAdmit} {
			s := spec
			reqs = append(reqs, ts.Request{Flow: ts.FlowStream, Policy: p, Stream: &s})
		}
	}
	return reqs
}
