package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	ts "thermalsched"
)

// The three in-process workloads are closed loops with one client:
// each request is sent only after the previous one returned.

const (
	// setupRepeats is how many times a run sets up from scratch; the
	// repeats double as the determinism probe.
	setupRepeats = 9
	// timedPasses is how many of the last set-ups go on to play the
	// timed list, each on its own freshly warmed engine.
	timedPasses = 3
)

// setSetup reports setup_s: the sum over the set-up's steps (engine or
// server construction, then each warm-up request) of each step's least
// time over the set-ups, normalized by the kernel slots run between the
// steps. wholes are the set-ups' own times.
func setSetup(o *outcome, steps leastTimes, slots *kernelSlots, wholes []float64) {
	raw := steps.sum()
	o.set("setup_s", raw*slots.speed(), "s")
	o.extra("setup_s.raw", raw, "s")
	o.extra("host_speed.setup", slots.speed(), "ratio")
	o.note("set-ups, slots included (s): %.4f", wholes)
}

type inprocSpec struct {
	block func(seed int64, block int) []ts.Request
	// warmBlocks is how many blocks, from block 0 on, the warm-up runs.
	// The timed list starts at the block after them.
	warmBlocks int
	// A reference-kernel slot of slotKernels kernels on calibThreads
	// goroutines (as many CPUs as the workload keeps busy), about as
	// long as the workload's median request, runs before every
	// slotEvery-th request of a set-up or timed pass: about a tenth of
	// the pass.
	calibThreads, slotKernels, slotEvery int
	// listBlocks is how many blocks the timed list holds in a 20 s run
	// (in proportion to -seconds otherwise): its timedPasses passes take
	// about 15 s on the reference host, and the set-ups most of the rest.
	listBlocks int
	// serialProbe runs the warm-up passes with request-level
	// Parallelism 1: co-synthesis search counters (GA evaluations,
	// memo and model-cache hits) are only deterministic serially, while
	// its responses are byte-identical at every parallelism.
	serialProbe bool
	// quality reports the deterministic thermal results.
	quality func(o *outcome, reqs []ts.Request, resps []*ts.Response)
}

// passHooks are a pass's optional observers: times gets each request's
// run time, keep each response, and before runs ahead of each request,
// outside its time.
type passHooks struct {
	times  leastTimes
	keep   func(int, *ts.Response)
	before func(int)
}

// runPass runs a request list in order on one engine, checking every
// output, and returns the pass's counters (engine stats included).
func runPass(e *ts.Engine, reqs []ts.Request, serial bool, o *outcome, h passHooks) *counters {
	c := &counters{}
	d := newDigest()
	for i := range reqs {
		req := reqs[i]
		if serial && req.Flow == ts.FlowCoSynthesis {
			req.Parallelism = 1
		}
		if h.before != nil {
			h.before(i)
		}
		o.Attempted++
		t0 := time.Now()
		resp, err := e.Run(context.Background(), req)
		if h.times != nil {
			h.times.add(i, time.Since(t0))
		}
		if err == nil {
			err = checkResponse(&req, resp)
		}
		if err != nil {
			o.Failed++
			o.fail("%s request %d: %v", req.Flow, i, err)
			continue
		}
		b, err := canonical(resp)
		if err != nil {
			o.Failed++
			o.fail("encode response %d: %v", i, err)
			continue
		}
		d.add(b)
		c.observe(&req, resp)
		if h.keep != nil {
			h.keep(i, resp)
		}
	}
	c.engineStats(e)
	c.OutputDigest = d.sum()
	return c
}

func runInproc(spec inprocSpec, seed int64, seconds float64) (*outcome, error) {
	o := &outcome{Correct: true}
	var warm, list []ts.Request
	for b := 0; b < spec.warmBlocks; b++ {
		warm = append(warm, spec.block(seed, b)...)
	}
	blocks := max(1, int(math.Round(float64(spec.listBlocks)*seconds/20)))
	for b := spec.warmBlocks; b < spec.warmBlocks+blocks; b++ {
		list = append(list, spec.block(seed, b)...)
	}

	// Set-up: engine construction plus a warm-up pass over the warm-up
	// blocks, repeated on fresh engines. Every repeat must produce the
	// same counters and output digest. The last timedPasses engines then
	// play the timed list, and each pass must produce the same digest.
	setup := newLeastTimes(1 + len(warm))
	timed := newLeastTimes(len(list))
	setupSlots := newKernelSlots(len(warm), spec.slotEvery, spec.slotKernels, spec.calibThreads)
	slots := newKernelSlots(len(list), spec.slotEvery, spec.slotKernels, spec.calibThreads)
	var wholes []float64
	var probe, listProbe *counters
	var qResps []*ts.Response
	heapPeak := 0.0
	for k := 0; k < setupRepeats; k++ {
		runtime.GC()
		t0 := time.Now()
		e, err := ts.NewEngine()
		if err != nil {
			return nil, fmt.Errorf("new engine: %w", err)
		}
		setup.add(0, time.Since(t0))
		c := runPass(e, warm, spec.serialProbe, o, passHooks{times: setup[1:], before: setupSlots.before})
		wholes = append(wholes, time.Since(t0).Seconds())
		if probe == nil {
			probe = c
		} else if c.String() != probe.String() {
			o.fail("setup pass %d counters differ:\n#   %s\n#   %s", k, probe, c)
		}
		pass := k - (setupRepeats - timedPasses)
		if pass < 0 {
			continue
		}
		runtime.GC()
		h := passHooks{times: timed, before: slots.before}
		var heap *heapSampler
		if pass == 0 {
			// The thermal results read copies of only the fields they
			// need, so the benchmark retains nothing of the engine's
			// results (resp.Metrics points into one). The live heap is
			// polled over this pass, a fixed amount of work.
			qResps = make([]*ts.Response, len(list))
			h.keep = func(i int, r *ts.Response) { qResps[i] = thermalFields(r) }
			heap = startHeapSampler()
		}
		c = runPass(e, list, false, o, h)
		if pass == 0 {
			heapPeak = heap.stop()
			listProbe = c
		} else if c.OutputDigest != listProbe.OutputDigest {
			o.fail("timed pass %d digest %s, pass 0 %s", pass, c.OutputDigest, listProbe.OutputDigest)
		}
		if pass == timedPasses-1 {
			// The warmed engine must reproduce the warm-up byte for byte.
			if c := runPass(e, warm, false, o, passHooks{}); c.OutputDigest != probe.OutputDigest {
				o.fail("warm replay of the warm-up digest %s, fresh engine %s", c.OutputDigest, probe.OutputDigest)
			}
		}
	}
	setSetup(o, setup, setupSlots, wholes)
	o.note("counters (warm-up, fresh engine): %s", probe)
	o.note("timed list: %d requests (blocks %d-%d), digest=%s sim_steps=%d", len(list), spec.warmBlocks, spec.warmBlocks+blocks-1,
		listProbe.OutputDigest, listProbe.SimSteps)

	lat := make([]float64, len(timed))
	for i, v := range timed {
		lat[i] = v * 1000
	}
	total := timed.sum()
	speed := slots.speed()
	o.set("throughput_rps", float64(len(list))/total/speed, "1/s")
	o.set("latency_p50_ms", median(lat)*speed, "ms")
	o.set("latency_p90_ms", quantile(lat, 0.90)*speed, "ms")
	o.extra("latency_p99_ms", quantile(lat, 0.99)*speed, "ms")
	o.extra("throughput_rps.raw", float64(len(list))/total, "1/s")
	o.extra("latency_p50_ms.raw", median(lat), "ms")
	o.extra("latency_p90_ms.raw", quantile(lat, 0.90), "ms")
	o.extra("host_speed", speed, "ratio")
	o.set("heap_peak_mb", heapPeak, "MB")
	o.note("timed: %d requests x %d passes, least times sum to %.2f s, %d beyond p90, %d beyond p99",
		len(lat), timedPasses, total, beyond(lat, 0.90), beyond(lat, 0.99))
	o.extra("sim_steps_per_s", float64(listProbe.SimSteps)/total/speed, "1/s")
	o.extra("failed_ratio", float64(o.Failed)/math.Max(1, float64(o.Attempted)), "ratio")
	if o.Correct {
		spec.quality(o, list, qResps)
	}
	return o, nil
}

func runPlatformSweep(seed int64, seconds float64) (*outcome, error) {
	return runInproc(inprocSpec{block: platformSweepBlock, warmBlocks: 8, listBlocks: 150, calibThreads: 1, slotKernels: 1, slotEvery: 5, quality: platformQuality}, seed, seconds)
}

func runCosynthesis(seed int64, seconds float64) (*outcome, error) {
	return runInproc(inprocSpec{block: cosynthesisBlock, warmBlocks: 1, listBlocks: 14, calibThreads: runtime.GOMAXPROCS(0), slotKernels: 128, slotEvery: 10, serialProbe: true, quality: cosynthQuality}, seed, seconds)
}

func runClosedLoop(seed int64, seconds float64) (*outcome, error) {
	return runInproc(inprocSpec{block: closedLoopBlock, warmBlocks: 1, listBlocks: 12, calibThreads: runtime.GOMAXPROCS(0), slotKernels: 16, slotEvery: 10, quality: closedLoopQuality}, seed, seconds)
}

// platformQuality: the thermal-aware policy's mean peak, and the
// paper's headline — the best power-aware heuristic's peak and average
// temperature minus the thermal-aware ones, averaged over inputs.
func platformQuality(o *outcome, reqs []ts.Request, resps []*ts.Response) {
	var peaks, dPeak, dAvg []float64
	bestPeak, bestAvg := math.Inf(1), math.Inf(1)
	for i, r := range reqs {
		m := resps[i].Metrics
		switch {
		case powerAware[r.Policy]:
			bestPeak = math.Min(bestPeak, m.MaxTemp)
			bestAvg = math.Min(bestAvg, m.AvgTemp)
		case r.Policy == "thermal":
			peaks = append(peaks, m.MaxTemp)
			dPeak = append(dPeak, bestPeak-m.MaxTemp)
			dAvg = append(dAvg, bestAvg-m.AvgTemp)
			bestPeak, bestAvg = math.Inf(1), math.Inf(1)
		}
	}
	o.set("peak_temp_c", mean(peaks), "C")
	o.extra("peak_temp_reduction_c", mean(dPeak), "C")
	o.extra("avg_temp_reduction_c", mean(dAvg), "C")
}

func cosynthQuality(o *outcome, _ []ts.Request, resps []*ts.Response) {
	var peaks []float64
	for _, r := range resps {
		peaks = append(peaks, r.Metrics.MaxTemp)
	}
	o.set("peak_temp_c", mean(peaks), "C")
}

func closedLoopQuality(o *outcome, _ []ts.Request, resps []*ts.Response) {
	var peaks, misses []float64
	for _, r := range resps {
		switch {
		case r.Simulate != nil:
			peaks = append(peaks, r.Simulate.PeakTempC.Mean)
			misses = append(misses, r.Simulate.DeadlineMissRate)
		case r.Stream != nil:
			peaks = append(peaks, r.Stream.PeakTempC.Mean)
			misses = append(misses, r.Stream.MissRate.Mean)
		}
	}
	o.set("peak_temp_c", mean(peaks), "C")
	o.extra("deadline_miss_rate", mean(misses), "ratio")
}

// thermalFields copies the parts of a response the thermal results read.
func thermalFields(resp *ts.Response) *ts.Response {
	out := &ts.Response{}
	if resp.Metrics != nil {
		m := *resp.Metrics
		out.Metrics = &m
	}
	if resp.Simulate != nil {
		out.Simulate = &ts.SimulateReport{PeakTempC: resp.Simulate.PeakTempC, DeadlineMissRate: resp.Simulate.DeadlineMissRate}
	}
	if resp.Stream != nil {
		out.Stream = &ts.StreamReport{PeakTempC: resp.Stream.PeakTempC, MissRate: resp.Stream.MissRate}
	}
	return out
}
