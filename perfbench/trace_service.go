package main

import (
	"math"
	"math/rand"
	"runtime"

	ts "thermalsched"
	"thermalsched/internal/jobs"
)

// traceService offers one arrival list at the nominal rate four times,
// each on a freshly started and warmed server: untraced and traced in
// alternating order, so the tracing overhead compares the same work.
// The traced runs record client-side spans at the service and job
// boundaries; the engine's share inside each HTTP call is the
// server-reported elapsedMs, and a job's queue wait and run come from
// the server's job timestamps. The last traced run is reported. The
// engine-side layers are then priced by replaying its distinct engine
// requests in process.
func traceService(o *outcome, t *tracer, seed int64, seconds float64) error {
	workers := runtime.NumCPU()
	warm := templates(seed)
	rate, secs := float64(serviceNominalRPS), seconds/5
	arr := schedule(newMix(rand.New(rand.NewSource(seed*1_000_003+99))), rate, secs)
	var offs, ons []float64
	var lags []float64
	var traced *stepStats
	var js jobs.MetricsSnapshot
	for k := 0; k < 4; k++ {
		srv, _, err := freshServer(o, warm, workers, passHooks{})
		if err != nil {
			return err
		}
		on := k%2 == 1
		if on {
			srv.tr = newTracer(true)
			if k == 3 {
				srv.tr = t
			}
		}
		out := newOutputs()
		runtime.GC()
		st := srv.runStep(arr, rate, secs, workers, out)
		if on {
			traced = st
			js = srv.svc.Jobs().Metrics().Snapshot()
		}
		srv.close()
		if out.firstErr != nil {
			o.fail("output check: %v", out.firstErr)
		}
		o.Attempted += st.scheduled
		o.Failed += st.failed
		lags = append(lags, st.lag...)
		label := "untraced"
		if on {
			label, ons = "traced  ", append(ons, mean(st.lat))
		} else {
			offs = append(offs, mean(st.lat))
		}
		o.note("%s %s", label, st)
	}

	aggs, total := t.aggregate("client")
	reportSpans(o, aggs, total)
	off, on := mean(offs), mean(ons)
	o.note("mean client latency untraced %.3f ms, traced %.3f ms (mean of 2 runs each on fresh servers)", off, on)
	o.set("trace.overhead_ms", on-off, "ms")
	o.set("trace.overhead_ratio", (on-off)/off, "ratio")
	o.set("trace.span_cost_ns", float64(spanCost().Nanoseconds()), "ns")
	t.mu.Lock()
	o.set("trace.spans", float64(len(t.spans)), "count")
	t.mu.Unlock()
	serviceMetrics(o, traced, lags, js)

	// Engine-side layers: the arrival list's distinct engine requests,
	// replayed in process with their probes.
	seen := map[string]bool{}
	var reqs []ts.Request
	for _, a := range arr {
		for _, r := range a.it.reqs {
			if fp := r.Fingerprint(); !seen[fp] && len(reqs) < 80 {
				seen[fp] = true
				reqs = append(reqs, r)
			}
		}
	}
	lib, err := ts.StandardLibrary()
	if err != nil {
		return err
	}
	stats := &traceStats{}
	if _, err := replay(t, reqs, lib, stats); err != nil {
		return err
	}
	o.Attempted += len(reqs)
	eaggs, etotal := t.aggregate("request")
	engineMetrics(o, t, stats, eaggs, etotal)
	return nil
}

// serviceMetrics sets the service- and job-tier metrics of a traced
// step; without one (the in-process workloads) they read zero.
func serviceMetrics(o *outcome, st *stepStats, lags []float64, js jobs.MetricsSnapshot) {
	over := map[string][]float64{}
	var codec, wait, run []float64
	polls, jobCount := 0, 0
	if st != nil {
		for _, r := range st.results {
			if r.err != nil || r.refused {
				continue
			}
			codec = append(codec, us(r.codec))
			if r.kind != kindJob || r.fresh {
				over[endpointOf[r.kind]] = append(over[endpointOf[r.kind]], ms(r.overhead))
			}
			if r.kind == kindJob {
				jobCount++
				polls += r.polls
				if r.fresh {
					wait = append(wait, ms(r.queueWait))
					run = append(run, ms(r.jobRun))
				}
			}
		}
	}
	for _, ep := range endpointOf {
		o.set("service.overhead_ms."+ep+".p50", zeroIfNaN(median(over[ep])), "ms")
		o.set("service.overhead_ms."+ep+".p99", zeroIfNaN(quantile(over[ep], 0.99)), "ms")
	}
	o.set("service.codec_us", zeroIfNaN(median(codec)), "us")
	rejected := float64(js.RejectedQueue + js.RejectedRate)
	o.set("service.rejected_ratio", rejected/math.Max(1, rejected+float64(js.Submitted)), "ratio")
	o.set("jobs.queue_wait_ms.p50", zeroIfNaN(median(wait)), "ms")
	o.set("jobs.queue_wait_ms.p99", zeroIfNaN(quantile(wait, 0.99)), "ms")
	o.set("jobs.run_ms", zeroIfNaN(median(run)), "ms")
	o.set("jobs.coalesce_ratio", float64(js.CoalesceInflight+js.CoalesceStored)/math.Max(1, float64(js.Submitted)), "ratio")
	o.set("jobs.evaluations", float64(js.Evaluations), "count")
	o.set("jobs.polls_per_job", float64(polls)/math.Max(1, float64(jobCount)), "ratio")
	o.set("loadgen.lag_p99_ms", zeroIfNaN(quantile(lags, 0.99)), "ms")
}
