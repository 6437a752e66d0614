package thermalsched

import (
	"reflect"
	"testing"
)

// fpBase is a request exercising every scalar knob with a non-default
// value, so per-field perturbations are visible against it.
func fpBase() Request {
	w := 1.5
	return Request{
		Flow:                 FlowCoSynthesis,
		Benchmark:            "Bm1",
		Policy:               "thermal",
		BusTimePerUnit:       0.2,
		TempWeight:           &w,
		MaxPEs:               5,
		CandidateTypes:       []string{"pe1", "pe2"},
		FloorplanGenerations: 12,
		SweepCount:           3,
		IncludeGantt:         true,
	}
}

// Every semantic Request field must move the fingerprint; Parallelism
// must not (results are byte-identical at every parallelism level, so
// requests differing only there coalesce).
func TestRequestFingerprintSensitivity(t *testing.T) {
	base := fpBase()
	again := fpBase()
	fp := base.Fingerprint()
	if fp != again.Fingerprint() {
		t.Fatal("equal requests produced different fingerprints")
	}

	seed0, seed2 := int64(0), int64(2)
	w2 := 2.5
	variants := map[string]Request{
		"Flow":                 func(r Request) Request { r.Flow = FlowPlatform; return r }(base),
		"Benchmark":            func(r Request) Request { r.Benchmark = "Bm2"; return r }(base),
		"Policy":               func(r Request) Request { r.Policy = "h1"; return r }(base),
		"Solver":               func(r Request) Request { r.Solver = "sparse"; return r }(base),
		"BusTimePerUnit":       func(r Request) Request { r.BusTimePerUnit = 0.3; return r }(base),
		"TempWeight":           func(r Request) Request { r.TempWeight = &w2; return r }(base),
		"TempWeight-nil":       func(r Request) Request { r.TempWeight = nil; return r }(base),
		"PowerWeight":          func(r Request) Request { r.PowerWeight = &w2; return r }(base),
		"EnergyWeight":         func(r Request) Request { r.EnergyWeight = &w2; return r }(base),
		"ThermalHorizon":       func(r Request) Request { r.ThermalHorizon = &w2; return r }(base),
		"MaxPEs":               func(r Request) Request { r.MaxPEs = 6; return r }(base),
		"CandidateTypes":       func(r Request) Request { r.CandidateTypes = []string{"pe1"}; return r }(base),
		"FloorplanGenerations": func(r Request) Request { r.FloorplanGenerations = 13; return r }(base),
		"SweepCount":           func(r Request) Request { r.SweepCount = 4; return r }(base),
		"IncludeGantt":         func(r Request) Request { r.IncludeGantt = false; return r }(base),
		"Seed-explicit-zero":   func(r Request) Request { r.Seed = &seed0; return r }(base),
		"Seed-two":             func(r Request) Request { r.Seed = &seed2; return r }(base),
		"Graph": func(r Request) Request {
			r.Graph = &GraphSpec{Name: "g", Deadline: 10,
				Tasks: []TaskSpec{{ID: 0, Name: "t0", Type: 1}},
			}
			return r
		}(base),
		"Scenario": func(r Request) Request {
			r.Scenario = &ScenarioSpec{Seed: 7, Graph: ScenarioGraphParams{Tasks: 30}}
			return r
		}(base),
		"Simulate": func(r Request) Request { r.Simulate = &SimulateSpec{Replicas: 2}; return r }(base),
		"Campaign": func(r Request) Request { r.Campaign = &CampaignSpec{Scenarios: 3}; return r }(base),
	}
	seen := map[string]string{fp: "base"}
	for name, req := range variants {
		got := req.Fingerprint()
		if prev, dup := seen[got]; dup {
			t.Errorf("perturbing %s collides with %s (fingerprint %s)", name, prev, got)
			continue
		}
		seen[got] = name
	}

	par := base
	par.Parallelism = 4
	if par.Fingerprint() != fp {
		t.Error("Parallelism moved the fingerprint; requests differing only in parallelism must coalesce")
	}
}

// The documented canonicalizations: nil Seed is seed 1; nil and
// zero-valued Simulate specs are the calibrated defaults; campaign
// spec defaults are normalized; but a campaign's Simulate presence is
// semantic and an explicit seed 0 is not seed 1.
func TestRequestFingerprintNormalization(t *testing.T) {
	a := NewRequest(FlowSweep)
	b := NewRequest(FlowSweep, WithSeed(1))
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("nil seed and explicit seed 1 must share a fingerprint")
	}
	zero := NewRequest(FlowSweep, WithSeed(0))
	if zero.Fingerprint() == a.Fingerprint() {
		t.Error("explicit seed 0 collapsed into the nil-seed default")
	}

	simNil := NewRequest(FlowSimulate, WithBenchmark("Bm1"))
	simZero := NewRequest(FlowSimulate, WithBenchmark("Bm1"), WithSimulate(SimulateSpec{}))
	if simNil.Fingerprint() != simZero.Fingerprint() {
		t.Error("nil and zero simulate specs must share a fingerprint")
	}

	cmpNil := NewRequest(FlowCampaign)
	cmpZero := NewRequest(FlowCampaign, WithCampaign(CampaignSpec{}))
	cmpDefault := NewRequest(FlowCampaign, WithCampaign(CampaignSpec{Scenarios: 8}))
	if cmpNil.Fingerprint() != cmpZero.Fingerprint() || cmpNil.Fingerprint() != cmpDefault.Fingerprint() {
		t.Error("nil, zero and explicitly-default campaign specs must share a fingerprint")
	}
	cmpSim := NewRequest(FlowCampaign, WithCampaign(CampaignSpec{Simulate: &SimulateSpec{}}))
	if cmpSim.Fingerprint() == cmpNil.Fingerprint() {
		t.Error("a campaign with closed-loop simulation fingerprints like the static campaign")
	}
}

// Fingerprints are the job tier's coalescing key and the journal's
// dedup key, so they must not drift across releases: a journaled job
// must keep coalescing with the same request submitted after an
// upgrade. These digests were recorded before the open-loop dtm flow
// was retired (its spec's segment is now a frozen literal); one request
// per flow plus the seed-zero and closed-loop-campaign variants.
func TestRequestFingerprintPins(t *testing.T) {
	seed3 := int64(3)
	pins := []struct {
		name string
		req  Request
		want string
	}{
		{"platform", NewRequest(FlowPlatform, WithBenchmark("Bm1"), WithPolicy(ThermalAware)),
			"0a13c26dd0eb81ce"},
		{"cosynthesis", NewRequest(FlowCoSynthesis, WithBenchmark("Bm2"), WithPolicy(MinTaskEnergy),
			WithSeed(seed3), WithFloorplanGenerations(5)),
			"29ba8d9a7ccfe215"},
		{"sweep", NewRequest(FlowSweep, WithSweepCount(3), WithSeed(7)),
			"e35f173d0b76a879"},
		{"simulate", NewRequest(FlowSimulate, WithBenchmark("Bm1"), WithSimulate(SimulateSpec{
			Controller: "admit", MinFactor: 0.85, Replicas: 4, Seed: 1})),
			"33b320a91b0f47b5"},
		{"generate", NewRequest(FlowGenerate, WithScenario(ScenarioSpec{Seed: 7, Graph: ScenarioGraphParams{Tasks: 30}})),
			"ab42a209b68e0c96"},
		{"campaign", NewRequest(FlowCampaign, WithCampaign(CampaignSpec{Scenarios: 4, Seed: 1})),
			"dc354b20984a0f0b"},
		{"stream", Request{Flow: FlowStream, Policy: StreamPolicyGreedy, Stream: &StreamSpec{Seed: 3, Replicas: 2}},
			"ef6a74d5cfdb252f"},
		{"campaign-simulate", NewRequest(FlowCampaign, WithCampaign(CampaignSpec{Scenarios: 3, Seed: 2,
			Simulate: &SimulateSpec{Controller: "toggle"}})),
			"ec3ac9c0fde0a813"},
		{"stream-seed0", Request{Flow: FlowStream, Policy: StreamPolicyFIFO, Stream: &StreamSpec{Seed: 0}},
			"88552087cb5607c7"},
		{"scenario-seed0", NewRequest(FlowPlatform, WithScenario(ScenarioSpec{Seed: 0})),
			"cef1445219f950eb"},
	}
	for _, p := range pins {
		if err := p.req.Validate(); err != nil {
			t.Errorf("%s: pinned request is invalid: %v", p.name, err)
		}
		if got := p.req.Fingerprint(); got != p.want {
			t.Errorf("%s: fingerprint %s, pinned %s", p.name, got, p.want)
		}
	}
}

// Field coverage of Fingerprint is enforced statically by the
// thermalvet fpfields analyzer against the //thermalvet:serializes
// registrations on the serializer (run `go run ./cmd/thermalvet .`).
// This keeps one slim runtime pin on the top-level Request as
// belt-and-braces for builds that skip vet.
func TestRequestFingerprintCoversFields(t *testing.T) {
	if n := reflect.TypeOf(Request{}).NumField(); n != 21 {
		t.Errorf("Request now has %d fields (pinned 21); extend Request.Fingerprint's explicit serialization (fpfields enforces the rest)", n)
	}
}

// Graph content must be fully covered: task and edge perturbations all
// move the fingerprint.
func TestRequestFingerprintGraphSensitivity(t *testing.T) {
	mk := func(mut func(*GraphSpec)) string {
		g := &GraphSpec{Name: "g", Deadline: 10,
			Tasks: []TaskSpec{{ID: 0, Name: "a", Type: 1}, {ID: 1, Name: "b", Type: 2}},
			Edges: []EdgeSpec{{From: 0, To: 1, Data: 5, Prob: 0.5}},
		}
		mut(g)
		r := NewRequest(FlowPlatform, WithGraphSpec(g))
		return r.Fingerprint()
	}
	base := mk(func(*GraphSpec) {})
	muts := map[string]func(*GraphSpec){
		"name":      func(g *GraphSpec) { g.Name = "h" },
		"deadline":  func(g *GraphSpec) { g.Deadline = 11 },
		"task-id":   func(g *GraphSpec) { g.Tasks[1].ID = 2 },
		"task-name": func(g *GraphSpec) { g.Tasks[1].Name = "c" },
		"task-type": func(g *GraphSpec) { g.Tasks[1].Type = 3 },
		"edge-from": func(g *GraphSpec) { g.Edges[0].From = 1 },
		"edge-to":   func(g *GraphSpec) { g.Edges[0].To = 0 },
		"edge-data": func(g *GraphSpec) { g.Edges[0].Data = 6 },
		"edge-prob": func(g *GraphSpec) { g.Edges[0].Prob = 0.6 },
	}
	for name, mut := range muts {
		if mk(mut) == base {
			t.Errorf("perturbing graph %s did not change the fingerprint", name)
		}
	}
}
