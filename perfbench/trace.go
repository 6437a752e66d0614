package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	ts "thermalsched"
	"thermalsched/internal/coloop"
	"thermalsched/internal/cosynth"
	"thermalsched/internal/floorplan"
	"thermalsched/internal/hotspot"
	"thermalsched/internal/jobs"
	"thermalsched/internal/sched"
	"thermalsched/internal/techlib"
)

// The traced run. Each sampled request is one root span holding
// measured spans for thermalsched.validate, thermalsched.fingerprint
// and thermalsched.run.<flow> (Engine.Run). The leaf calls Engine.Run
// makes inside other layers are attributed as estimated children of the
// run span: the cost per call of a direct call to the leaf's exported
// function on the same input, times the call's deterministic count. The
// direct calls run under a separate "probe" root, so they do not count
// toward the request's time. The loop layers (runtime.Simulate,
// stream.Run, cosynth's search) are not re-run: their self time is what
// the measured run span leaves after its estimated children. The replay
// runs every request serially (request Parallelism 1; responses are
// byte-identical at any parallelism), so self times are CPU costs that
// add up per request.

// The co-simulation step and time scale the direct transient calls use:
// the documented SimulateSpec and StreamSpec defaults, which the
// workloads keep.
const (
	stepDT    = 1.0
	timeScale = 0.1
)

// directCosts are the per-call costs the probe measured for one
// request, plus the oracle inquiries it counted.
type directCosts struct {
	generate   time.Duration
	modelBuild time.Duration // per build, averaged over the replay so far
	schedule   time.Duration
	inquiries  int // thermal-oracle inquiries inside the schedule
	steady     time.Duration
	factor     time.Duration
	step       time.Duration
	forecaster time.Duration
	gaPerEval  time.Duration
}

// countingOracle counts the scheduler's thermal inquiries.
type countingOracle struct {
	o *sched.ModelOracle
	n int
}

func (c *countingOracle) AvgTemp(p []float64) (float64, error) { c.n++; return c.o.AvgTemp(p) }
func (c *countingOracle) SetBase(p []float64) error            { return c.o.SetBase(p) }
func (c *countingOracle) AvgTempDelta(pe int, w float64) (float64, error) {
	c.n++
	return c.o.AvgTempDelta(pe, w)
}

// replayer drives the probe's direct layer calls. Its model cache
// plays the engine's: a floorplan's model is built once per replay.
type replayer struct {
	t          *tracer
	lib        *techlib.Library
	hs         hotspot.Config
	models     map[string]*hotspot.Model
	builds     int
	buildTotal time.Duration
}

// provider returns a caching model provider that times every build as
// a child of parent.
func (r *replayer) provider(parent, req int) cosynth.ModelProvider {
	return func(fp *floorplan.Floorplan, cfg hotspot.Config) (*hotspot.Model, error) {
		key := fmt.Sprint(fp.Blocks(), cfg)
		if m, ok := r.models[key]; ok {
			return m, nil
		}
		var m *hotspot.Model
		d, err := r.t.run("hotspot.model_build", parent, req, func() (err error) {
			m, err = hotspot.NewModel(fp, cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		r.models[key] = m
		r.builds++
		r.buildTotal += d
		return m, nil
	}
}

// perBuild is the mean cost of the model builds so far.
func (r *replayer) perBuild() time.Duration {
	if r.builds == 0 {
		return 0
	}
	return r.buildTotal / time.Duration(r.builds)
}

// timeLoop measures the cost per call of f over n calls, as one span.
func (r *replayer) timeLoop(name string, parent, req, n int, f func() error) (time.Duration, error) {
	d, err := r.t.run(name, parent, req, func() error {
		for i := 0; i < n; i++ {
			if err := f(); err != nil {
				return err
			}
		}
		return nil
	})
	return d / time.Duration(n), err
}

// platform builds the request's platform through cosynth.
func (r *replayer) platform(lib *techlib.Library, desc *cosynth.PlatformDesc, parent, req int) (sched.Architecture, *hotspot.Model, *sched.ModelOracle, error) {
	id := r.t.begin("cosynth.build_platform", parent, req)
	arch, _, model, oracle, err := cosynth.BuildPlatformDesc(lib, cosynth.DefaultBusTimePerUnit, r.hs, r.provider(id, req), desc)
	r.t.end(id)
	return arch, model, oracle, err
}

// thermalProbe prices steady-state inquiries, transient factorization,
// stepping and (for proactive supervision) the rise forecaster on one
// platform. maxDur is the longest task, which sets the forecaster's
// horizon.
func (r *replayer) thermalProbe(model *hotspot.Model, oracle *sched.ModelOracle, arch sched.Architecture, maxDur float64, forecast bool, parent, req int, dc *directCosts) error {
	n := len(arch.PEs)
	base := make([]float64, n)
	for i := range base {
		base[i] = 2
	}
	if err := oracle.SetBase(base); err != nil {
		return err
	}
	i := 0
	var err error
	dc.steady, err = r.timeLoop("hotspot.steady", parent, req, 256, func() error {
		i++
		_, err := oracle.AvgTempDelta(i%n, 1.5)
		return err
	})
	if err != nil {
		return err
	}
	var tr *hotspot.Transient
	dc.factor, err = r.t.run("hotspot.transient_factor", parent, req, func() (err error) {
		tr, err = model.NewTransient(stepDT * timeScale)
		return err
	})
	if err != nil {
		return err
	}
	p := make([]float64, model.NumBlocks())
	for i := range p {
		p[i] = 1 + float64(i%3)
	}
	out := make([]float64, model.NumBlocks())
	dc.step, err = r.timeLoop("hotspot.step", parent, req, 256, func() error { return tr.StepVecInto(out, p) })
	if err != nil || !forecast {
		return err
	}
	blocks, err := coloop.PEBlocks(model, arch.PENames())
	if err != nil {
		return err
	}
	dc.forecaster, err = r.t.run("coloop.forecaster", parent, req, func() error {
		_, err := coloop.NewRiseForecaster(model, blocks, stepDT*timeScale, maxDur*timeScale)
		return err
	})
	return err
}

// probe calls the leaf layers' exported functions directly on the
// request's input and returns the costs per call.
func (r *replayer) probe(req *ts.Request, resp *ts.Response, id int) (*directCosts, error) {
	dc := &directCosts{}
	defer func() { dc.modelBuild = r.perBuild() }()
	lib := r.lib
	var g *ts.Graph
	var desc *cosynth.PlatformDesc
	var err error
	switch {
	case req.Stream != nil:
		var wl *ts.StreamWorkload
		dc.generate, err = r.t.run("scenario.generate", id, id, func() (err error) {
			wl, err = ts.GenerateStreamWorkload(*req.Stream)
			return err
		})
		if err != nil {
			return nil, err
		}
		return dc, r.probeStream(req, wl, id, dc)
	case req.Scenario != nil:
		var sc *ts.Scenario
		dc.generate, err = r.t.run("scenario.generate", id, id, func() (err error) {
			sc, err = ts.GenerateScenario(*req.Scenario)
			return err
		})
		if err != nil {
			return nil, err
		}
		if req.Flow == ts.FlowGenerate {
			return dc, nil
		}
		g, lib = sc.Graph, sc.Lib
		desc = &cosynth.PlatformDesc{TypeNames: sc.PETypeNames, Layout: sc.Layout}
	default:
		if g, err = ts.Benchmark(req.Benchmark); err != nil {
			return nil, err
		}
	}
	if req.Flow == ts.FlowCoSynthesis {
		return dc, r.probeGA(req, resp, id, dc)
	}
	policy := sched.ThermalAware
	if req.Policy != "" {
		if policy, err = sched.ParsePolicy(req.Policy); err != nil {
			return nil, err
		}
	}

	arch, model, oracle, err := r.platform(lib, desc, id, id)
	if err != nil {
		return nil, err
	}
	cfg := sched.DefaultConfig(policy)
	co := &countingOracle{o: oracle}
	if policy == sched.ThermalAware {
		cfg.Oracle = co
	}
	var s *sched.Schedule
	dc.schedule, err = r.t.run("sched.schedule", id, id, func() (err error) {
		s, err = sched.AllocateAndScheduleCtx(context.Background(), g, arch, lib, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	dc.inquiries = co.n
	var maxDur float64
	for _, a := range s.Assignments {
		maxDur = math.Max(maxDur, a.Finish-a.Start)
	}
	ctrl := ""
	if req.Simulate != nil {
		ctrl = req.Simulate.Controller
	}
	return dc, r.thermalProbe(model, oracle, arch, maxDur, ctrl == "admit" || ctrl == "zigzag", id, id, dc)
}

// probeStream prices the thermal leaf calls on the stream's platform;
// the forecaster's horizon is the longest WCET of the workload's jobs.
func (r *replayer) probeStream(req *ts.Request, wl *ts.StreamWorkload, id int, dc *directCosts) error {
	arch, model, oracle, err := r.platform(wl.Lib, &cosynth.PlatformDesc{TypeNames: wl.PETypeNames, Layout: wl.Layout}, id, id)
	if err != nil {
		return err
	}
	var maxWCET float64
	for _, j := range wl.Jobs {
		for _, pe := range arch.PEs {
			if e, ok := wl.Lib.Lookup(pe.Type, j.Type); ok {
				maxWCET = math.Max(maxWCET, e.WCET)
			}
		}
	}
	return r.thermalProbe(model, oracle, arch, maxWCET, req.Policy == ts.StreamPolicyAdmit, id, id, dc)
}

// probeGA prices, on the chosen architecture's blocks, one GA packing
// evaluation (packing, pruning and memo bookkeeping, without the
// thermal solve), one model build, and the steady-state solve the
// thermal-aware GA makes per evaluation.
func (r *replayer) probeGA(req *ts.Request, resp *ts.Response, id int, dc *directCosts) error {
	blocks := make([]floorplan.Block, len(resp.Architecture))
	for i, pe := range resp.Architecture {
		blocks[i] = floorplan.Block{Name: pe.Name, Area: pe.AreaMM2 * 1e-6, MinAspect: 0.5, MaxAspect: 2}
	}
	ga := floorplan.DefaultGAConfig()
	ga.Generations = req.FloorplanGenerations
	ga.Seed = *req.Seed
	ga.Parallelism = 1
	var res *floorplan.Result
	d, err := r.t.run("floorplan.ga", id, id, func() (err error) {
		res, err = floorplan.RunGACtx(context.Background(), blocks, ga)
		return err
	})
	if err != nil {
		return err
	}
	if res.Evals > 0 {
		dc.gaPerEval = d / time.Duration(res.Evals)
	}
	m, err := r.provider(id, id)(res.Plan, r.hs)
	if err != nil {
		return err
	}
	power := make(map[string]float64, len(blocks))
	for _, b := range blocks {
		power[b.Name] = 1.5
	}
	dc.steady, err = r.timeLoop("hotspot.steady", id, id, 64, func() error {
		_, err := m.SteadyState(power)
		return err
	})
	return err
}

// engineCounts is a snapshot of the engine's cache and search counters.
type engineCounts struct{ modelMiss, scenarioMiss, streamMiss, evals, memoHits uint64 }

func countsOf(e *ts.Engine) engineCounts {
	_, mm, _ := e.ModelCacheStats()
	_, sm, _ := e.ScenarioCacheStats()
	_, tm, _ := e.StreamCacheStats()
	ev, mh := e.SearchMemoStats()
	return engineCounts{mm, sm, tm, ev, mh}
}

// attribution is what attribute laid under one run span.
type attribution struct {
	builds, evals, memoHits int
	loop                    time.Duration // the loop layer's span, when the flow has one
}

// attribute lays the probe's costs under the request's run span as
// estimated children, using the counts this run deterministically made.
// A flow's loop layer (cosynth's search, runtime.Simulate, stream.Run)
// gets what the run span leaves after the other children, and its own
// leaf calls are estimated under it.
func (r *replayer) attribute(run, req int, rq *ts.Request, resp *ts.Response, dc *directCosts, before, after engineCounts) attribution {
	t := r.t
	a := attribution{
		builds:   int(after.modelMiss - before.modelMiss),
		evals:    int(after.evals - before.evals),
		memoHits: int(after.memoHits - before.memoHits),
	}
	gen := int(after.scenarioMiss-before.scenarioMiss) + int(after.streamMiss-before.streamMiss)
	t.estimate("scenario.generate", run, req, gen, dc.generate)
	if rq.Flow == ts.FlowCoSynthesis {
		var cs int
		cs, a.loop = t.residual("cosynth.cosynth", run, req)
		t.estimate("floorplan.ga", cs, req, a.evals, dc.gaPerEval)
		t.estimate("hotspot.steady", cs, req, a.evals, dc.steady)
		t.estimate("hotspot.model_build", cs, req, a.builds, dc.modelBuild)
		return a
	}
	t.estimate("hotspot.model_build", run, req, a.builds, dc.modelBuild)
	if dc.schedule > 0 {
		s := t.estimate("sched.schedule", run, req, 1, dc.schedule)
		t.estimate("hotspot.steady", s, req, dc.inquiries, dc.steady)
	}
	var name string
	var replicas, steps int
	var forecast bool
	switch {
	case resp.Simulate != nil:
		name = "runtime.simulate"
		replicas = resp.Simulate.Replicas
		steps = int(math.Round(resp.Simulate.MeanSteps * float64(replicas)))
		forecast = resp.Simulate.Controller == "admit" || resp.Simulate.Controller == "zigzag"
	case resp.Stream != nil:
		name = "stream.run"
		replicas = resp.Stream.Replicas
		steps = int(math.Round(resp.Stream.MeanSteps * float64(replicas)))
		forecast = resp.Stream.Policy == ts.StreamPolicyAdmit
	default:
		return a
	}
	var loop int
	loop, a.loop = t.residual(name, run, req)
	t.estimate("hotspot.transient_factor", loop, req, replicas, dc.factor)
	t.estimate("hotspot.step", loop, req, steps, dc.step)
	if forecast {
		t.estimate("coloop.forecaster", loop, req, replicas, dc.forecaster)
	}
	return a
}

// replay runs a request sample once through the engine with its
// probes, traced or not, and returns the wall time.
func replay(t *tracer, reqs []ts.Request, lib *techlib.Library, stats *traceStats) (time.Duration, error) {
	eng, err := ts.NewEngine()
	if err != nil {
		return 0, err
	}
	r := &replayer{t: t, lib: lib, hs: hotspot.DefaultConfig(), models: map[string]*hotspot.Model{}}
	ctx := context.Background()
	runtime.GC()
	start := time.Now()
	for i := range reqs {
		rq := &reqs[i]
		if rq.Flow == ts.FlowCoSynthesis || rq.Flow == ts.FlowSimulate || rq.Flow == ts.FlowStream {
			// Serial, so the estimated children (priced by serial direct
			// calls) add up within the run span, and the search counters
			// are deterministic.
			rq.Parallelism = 1
		}
		root := t.begin("request", -1, i)
		if _, err := t.run("thermalsched.validate", root, i, rq.Validate); err != nil {
			return 0, err
		}
		t.run("thermalsched.fingerprint", root, i, func() error { _ = rq.Fingerprint(); return nil })
		before := countsOf(eng)
		run := t.begin("thermalsched.run."+string(rq.Flow), root, i)
		resp, err := eng.Run(ctx, *rq)
		t.end(run)
		t.end(root)
		if err == nil {
			err = checkResponse(rq, resp)
		}
		if err != nil {
			return 0, fmt.Errorf("request %d (%s): %w", i, rq.Flow, err)
		}
		after := countsOf(eng)
		probe := t.begin("probe", -1, i)
		dc, err := r.probe(rq, resp, probe)
		t.end(probe)
		if err != nil {
			return 0, fmt.Errorf("probe %d (%s): %w", i, rq.Flow, err)
		}
		a := r.attribute(run, i, rq, resp, dc, before, after)
		if stats != nil {
			stats.observe(rq, resp, dc, a)
		}
	}
	wall := time.Since(start)
	if stats != nil {
		stats.engine(eng)
		stats.modelBuildMS = ms(r.perBuild())
	}
	return wall, nil
}

// traceStats gathers the named per-layer metrics of a replay.
type traceStats struct {
	schedCalls, candidates, inquiries int
	steady, factor, forecaster        []float64 // per call, direct
	generate                          []float64
	modelBuildMS                      float64
	forecasterCalls                   int
	simSteps, streamSteps             int
	simReplicaMS, streamReplicaMS     []float64 // per replica: the loop span over its replicas
	streamJobs, streamDenials         int
	gaMS                              []float64 // per request, estimated
	gaEvals, gaMemo                   int
	cosynthMS                         []float64 // per request: the loop span's self time
	modelHit, modelMiss               uint64
	scenHit, scenMiss                 uint64
	streamHit, streamMiss             uint64
}

func (s *traceStats) observe(rq *ts.Request, resp *ts.Response, dc *directCosts, a attribution) {
	if dc.schedule > 0 {
		s.schedCalls++
		s.inquiries += dc.inquiries
		s.candidates += len(resp.Architecture) * tasksOf(rq)
	}
	add := func(xs *[]float64, d time.Duration) {
		if d > 0 {
			*xs = append(*xs, ms(d))
		}
	}
	add(&s.steady, dc.steady)
	add(&s.factor, dc.factor)
	add(&s.forecaster, dc.forecaster)
	add(&s.generate, dc.generate)
	if dc.forecaster > 0 {
		switch {
		case resp.Simulate != nil:
			s.forecasterCalls += resp.Simulate.Replicas
		case resp.Stream != nil:
			s.forecasterCalls += resp.Stream.Replicas
		}
	}
	switch {
	case resp.Simulate != nil:
		r := resp.Simulate.Replicas
		s.simSteps += int(math.Round(resp.Simulate.MeanSteps * float64(r)))
		s.simReplicaMS = append(s.simReplicaMS, ms(a.loop)/float64(r))
	case resp.Stream != nil:
		r := resp.Stream.Replicas
		s.streamSteps += int(math.Round(resp.Stream.MeanSteps * float64(r)))
		s.streamReplicaMS = append(s.streamReplicaMS, ms(a.loop)/float64(r))
		s.streamJobs += resp.Stream.Jobs * r
		s.streamDenials += int(math.Round(resp.Stream.MeanAdmissionDenials * float64(r)))
	case rq.Flow == ts.FlowCoSynthesis:
		ga := ms(dc.gaPerEval) * float64(a.evals)
		s.gaEvals += a.evals
		s.gaMemo += a.memoHits
		s.gaMS = append(s.gaMS, ga)
		s.cosynthMS = append(s.cosynthMS, math.Max(0, ms(a.loop)-ga-ms(dc.steady)*float64(a.evals)-ms(dc.modelBuild)*float64(a.builds)))
	}
}

func (s *traceStats) engine(e *ts.Engine) {
	s.modelHit, s.modelMiss, _ = e.ModelCacheStats()
	s.scenHit, s.scenMiss, _ = e.ScenarioCacheStats()
	s.streamHit, s.streamMiss, _ = e.StreamCacheStats()
}

// tasksOf is the request's task count (for the candidate count).
func tasksOf(rq *ts.Request) int {
	if rq.Scenario != nil {
		return rq.Scenario.Graph.Tasks
	}
	if g, err := ts.Benchmark(rq.Benchmark); err == nil {
		return g.NumTasks()
	}
	return 0
}

func ratio(hit, miss uint64) float64 {
	if hit+miss == 0 {
		return 0
	}
	return float64(hit) / float64(hit+miss)
}

// zeroIfNaN reports an absent sample set as zero.
func zeroIfNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// stepCosts prices one transient step on grid platforms of 4, 16 and
// 64 blocks, the platform sizes the closed-loop workload uses.
func stepCosts(t *tracer, o *outcome) error {
	for _, n := range []int{4, 16, 64} {
		fp, err := floorplan.Grid("b", n, 4e-6)
		if err != nil {
			return err
		}
		m, err := hotspot.NewModel(fp, hotspot.DefaultConfig())
		if err != nil {
			return err
		}
		tr, err := m.NewTransient(stepDT * timeScale)
		if err != nil {
			return err
		}
		p := make([]float64, n)
		for i := range p {
			p[i] = 1 + float64(i%3)
		}
		out := make([]float64, n)
		const calls = 2000
		root := t.begin("calibrate", -1, -1)
		d, err := (&replayer{t: t}).timeLoop(fmt.Sprintf("hotspot.step.%d", n), root, -1, calls, func() error { return tr.StepVecInto(out, p) })
		t.end(root)
		if err != nil {
			return err
		}
		o.set(fmt.Sprintf("hotspot.step_us.%d", n), us(d), "us")
	}
	return nil
}

// spanCost calibrates the tracer's own cost per begin/end pair.
func spanCost() time.Duration {
	t := newTracer(true)
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x", -1, i))
	}
	return time.Since(start) / n
}

// sampleBlocks is the traced sample: blocks 1..n of the workload.
func sampleBlocks(block func(int64, int) []ts.Request, seed int64, n int) []ts.Request {
	var out []ts.Request
	for b := 1; b <= n; b++ {
		out = append(out, block(seed, b)...)
	}
	return out
}

func runTrace(name string, seed int64, seconds float64, dir string) (*outcome, error) {
	o := &outcome{Correct: true}
	t := newTracer(true)
	if name == "service" {
		if err := traceService(o, t, seed, seconds); err != nil {
			return nil, err
		}
	} else if err := traceInproc(o, t, name, seed, seconds); err != nil {
		return nil, err
	}
	if err := stepCosts(t, o); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	if err := t.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	o.note("spans written to %s", path)
	return o, nil
}

// traceInproc replays a sample of an in-process workload untraced, then
// traced, and reports the per-layer metrics.
func traceInproc(o *outcome, t *tracer, name string, seed int64, seconds float64) error {
	blocks := map[string]func(int64, int) []ts.Request{
		"platform-sweep": platformSweepBlock, "cosynthesis": cosynthesisBlock, "closed-loop": closedLoopBlock,
	}
	block, ok := blocks[name]
	if !ok {
		return errors.New("unknown workload " + name)
	}
	lib, err := ts.StandardLibrary()
	if err != nil {
		return err
	}
	// Size the sample so each of four replays (untraced and traced,
	// alternating, so neither side always runs on a colder process)
	// takes about a fifth of the measured seconds.
	n := 1
	probeWall, err := replay(newTracer(false), block(seed, 1), lib, nil)
	if err != nil {
		return err
	}
	if per := probeWall.Seconds(); per > 0 {
		n = max(1, int(seconds/5/per))
	}
	reqs := sampleBlocks(block, seed, n)
	var offs, ons []float64
	stats := &traceStats{}
	for k := 0; k < 2; k++ {
		off, err := replay(newTracer(false), reqs, lib, nil)
		if err != nil {
			return err
		}
		tk, sk := newTracer(false), (*traceStats)(nil)
		if k == 1 { // the traced replay that is reported
			tk, sk = t, stats
		}
		tk.on = true
		on, err := replay(tk, reqs, lib, sk)
		if err != nil {
			return err
		}
		offs, ons = append(offs, ms(off)), append(ons, ms(on))
	}
	off, on := mean(offs), mean(ons)
	o.Attempted = 4*len(reqs) + len(block(seed, 1))
	aggs, total := t.aggregate("request")
	reportSpans(o, aggs, total)
	t.mu.Lock()
	spans := len(t.spans)
	t.mu.Unlock()
	o.note("sample: %d blocks, %d requests; replay wall untraced %.1f ms, traced %.1f ms (mean of 2 each; %d spans per traced replay)",
		n, len(reqs), off, on, spans)
	o.set("trace.overhead_ms", on-off, "ms")
	o.set("trace.overhead_ratio", (on-off)/off, "ratio")
	o.set("trace.span_cost_ns", float64(spanCost().Nanoseconds()), "ns")
	o.set("trace.spans", float64(spans), "count")

	engineMetrics(o, t, stats, aggs, total)
	serviceMetrics(o, nil, nil, jobs.MetricsSnapshot{})
	return nil
}

// engineMetrics sets the named per-layer metrics of the engine-side
// layers from a replay.
func engineMetrics(o *outcome, t *tracer, stats *traceStats, aggs map[string]*spanAgg, total time.Duration) {
	schedDur := t.durations("sched.schedule")
	o.set("sched.schedule_ms", zeroIfNaN(median(schedDur)), "ms")
	o.set("sched.busy_share", shareOf(aggs, total, "sched."), "ratio")
	o.set("sched.calls", float64(stats.schedCalls), "count")
	o.set("sched.candidates", float64(stats.candidates), "count")
	o.set("sched.oracle_inquiries", float64(stats.inquiries), "count")
	o.set("hotspot.steady_us", zeroIfNaN(median(stats.steady))*1000, "us")
	o.set("hotspot.model_build_ms", stats.modelBuildMS, "ms")
	o.set("hotspot.transient_factor_ms", zeroIfNaN(median(stats.factor)), "ms")
	o.set("coloop.forecaster_ms", zeroIfNaN(median(stats.forecaster)), "ms")
	o.set("coloop.forecaster_calls", float64(stats.forecasterCalls), "count")
	o.set("runtime.simulate_ms", zeroIfNaN(median(stats.simReplicaMS)), "ms")
	o.set("runtime.steps", float64(stats.simSteps), "count")
	o.set("stream.run_ms", zeroIfNaN(median(stats.streamReplicaMS)), "ms")
	o.set("stream.steps", float64(stats.streamSteps), "count")
	o.set("stream.denials_per_job", float64(stats.streamDenials)/math.Max(1, float64(stats.streamJobs)), "ratio")
	o.set("floorplan.ga_ms", zeroIfNaN(median(stats.gaMS)), "ms")
	o.set("floorplan.evals", float64(stats.gaEvals), "count")
	o.set("floorplan.memo_hit_ratio", ratio(uint64(stats.gaMemo), uint64(stats.gaEvals)), "ratio")
	o.set("cosynth.cosynth_ms", zeroIfNaN(median(stats.cosynthMS)), "ms")
	o.set("scenario.generate_ms", zeroIfNaN(median(stats.generate)), "ms")
	o.set("thermalsched.model_cache_hit_ratio", ratio(stats.modelHit, stats.modelMiss), "ratio")
	o.set("thermalsched.scenario_cache_hit_ratio", ratio(stats.scenHit, stats.scenMiss), "ratio")
	o.set("thermalsched.stream_cache_hit_ratio", ratio(stats.streamHit, stats.streamMiss), "ratio")
	o.set("thermalsched.validate_us", zeroIfNaN(median(t.durations("thermalsched.validate")))*1000, "us")
	o.set("thermalsched.fingerprint_us", zeroIfNaN(median(t.durations("thermalsched.fingerprint")))*1000, "us")
	for _, f := range []ts.FlowKind{ts.FlowPlatform, ts.FlowCoSynthesis, ts.FlowSimulate, ts.FlowStream, ts.FlowGenerate} {
		o.set("thermalsched.run_ms."+string(f), zeroIfNaN(median(t.durations("thermalsched.run."+string(f)))), "ms")
	}
}

// shareOf is the summed self time of the spans whose names start with
// prefix, as a share of the request total.
func shareOf(aggs map[string]*spanAgg, total time.Duration, prefix string) float64 {
	var self time.Duration
	for n, a := range aggs {
		if len(n) >= len(prefix) && n[:len(prefix)] == prefix {
			self += a.self
		}
	}
	return float64(self) / float64(total)
}
