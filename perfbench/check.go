package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"math"
	"sort"
	"strings"

	ts "thermalsched"
)

// ambientC is the thermal model's default ambient: no reported
// temperature may lie below it.
const ambientC = 45.0

// checkResponse applies the output checks every workload shares: no
// error, the flow echoed back, the flow's payload present, every
// temperature finite and at or above ambient, and for streams a price
// of onlineness of at least 1 with the offline bound below the
// realized makespan.
func checkResponse(req *ts.Request, resp *ts.Response) error {
	if resp == nil {
		return errors.New("nil response")
	}
	if resp.Error != "" {
		return fmt.Errorf("response error: %s", resp.Error)
	}
	if resp.Flow != req.Flow {
		return fmt.Errorf("flow %q echoed as %q", req.Flow, resp.Flow)
	}
	var temps []float64
	stats := func(s ts.Stats) { temps = append(temps, s.Mean, s.Min, s.P50, s.P90, s.Max) }
	switch req.Flow {
	case ts.FlowPlatform, ts.FlowCoSynthesis:
		if resp.Metrics == nil || len(resp.PerPE) == 0 {
			return fmt.Errorf("%s: missing metrics", req.Flow)
		}
		if req.Flow == ts.FlowCoSynthesis && resp.Floorplan == "" {
			return errors.New("cosynthesis: missing floorplan")
		}
	case ts.FlowSimulate:
		if resp.Simulate == nil || resp.Metrics == nil {
			return errors.New("simulate: missing report")
		}
		stats(resp.Simulate.PeakTempC)
		if resp.Simulate.MeanSteps <= 0 {
			return errors.New("simulate: no co-simulation steps")
		}
	case ts.FlowStream:
		st := resp.Stream
		if st == nil {
			return errors.New("stream: missing report")
		}
		stats(st.PeakTempC)
		stats(st.AvgTempC)
		if st.Price.Min < 1 {
			return fmt.Errorf("stream: price of onlineness %g < 1", st.Price.Min)
		}
		if st.OfflineBound.Min > st.Makespan.Min || st.OfflineBound.Max > st.Makespan.Max {
			return fmt.Errorf("stream: offline bound %g above makespan %g", st.OfflineBound.Max, st.Makespan.Max)
		}
	case ts.FlowGenerate:
		if resp.Scenario == nil || resp.Scenario.Fingerprint == "" || resp.Scenario.TG == "" {
			return errors.New("generate: missing scenario payload")
		}
	}
	if m := resp.Metrics; m != nil {
		temps = append(temps, m.MaxTemp, m.AvgTemp)
		if m.MaxTemp < m.AvgTemp {
			return fmt.Errorf("max temperature %g below average %g", m.MaxTemp, m.AvgTemp)
		}
	}
	for _, pe := range resp.PerPE {
		temps = append(temps, pe.TempC)
	}
	for _, t := range temps {
		if math.IsNaN(t) || math.IsInf(t, 0) || t < ambientC {
			return fmt.Errorf("temperature %g not finite or below ambient %g °C", t, ambientC)
		}
	}
	return nil
}

// canonical is a response's wire form with the wall-clock stamp
// zeroed: the bytes the byte-identity contract covers.
func canonical(resp *ts.Response) ([]byte, error) {
	c := *resp
	c.ElapsedMS = 0
	return json.Marshal(&c)
}

// digest folds canonical responses, in order, into one short hash.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(b []byte) {
	d.h.Write(b)
	d.h.Write([]byte{'\n'})
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// counters are the deterministic work counts of one pass over a fixed
// request list on a fresh engine. They must repeat exactly for a
// given seed, so a count can back a claim.
type counters struct {
	ByFlow       map[ts.FlowKind]int
	Schedules    int   // ASP schedules the platform and simulate flows report (one each)
	SimSteps     int64 // co-simulation steps: MeanSteps x Replicas over simulate and stream
	StreamJobs   int64 // online jobs dispatched, over all replicas
	Denials      int64 // admission denials, over all replicas
	GAEvals      uint64
	GAMemoHits   uint64
	ModelHits    uint64
	ModelMisses  uint64
	ScenarioHits uint64
	ScenarioMiss uint64
	StreamHits   uint64
	StreamMisses uint64
	OutputDigest string
}

// observe adds one response's work to the counts.
func (c *counters) observe(req *ts.Request, resp *ts.Response) {
	if c.ByFlow == nil {
		c.ByFlow = map[ts.FlowKind]int{}
	}
	c.ByFlow[req.Flow]++
	if resp == nil {
		return
	}
	switch {
	case resp.Simulate != nil:
		c.Schedules++
		c.SimSteps += int64(math.Round(resp.Simulate.MeanSteps * float64(resp.Simulate.Replicas)))
		c.Denials += int64(math.Round(resp.Simulate.MeanAdmissionDenials * float64(resp.Simulate.Replicas)))
	case resp.Stream != nil:
		r := int64(resp.Stream.Replicas)
		c.SimSteps += int64(math.Round(resp.Stream.MeanSteps * float64(r)))
		c.StreamJobs += int64(resp.Stream.Jobs) * r
		c.Denials += int64(math.Round(resp.Stream.MeanAdmissionDenials * float64(r)))
	case req.Flow == ts.FlowPlatform:
		c.Schedules++
	}
}

// engineStats copies the engine's cache and search counters.
func (c *counters) engineStats(e *ts.Engine) {
	c.GAEvals, c.GAMemoHits = e.SearchMemoStats()
	c.ModelHits, c.ModelMisses, _ = e.ModelCacheStats()
	c.ScenarioHits, c.ScenarioMiss, _ = e.ScenarioCacheStats()
	c.StreamHits, c.StreamMisses, _ = e.StreamCacheStats()
}

func (c *counters) String() string {
	flows := make([]string, 0, len(c.ByFlow))
	for f, n := range c.ByFlow {
		flows = append(flows, fmt.Sprintf("%s=%d", f, n))
	}
	sort.Strings(flows)
	return fmt.Sprintf("requests{%s} schedules=%d sim_steps=%d stream_jobs=%d denials=%d "+
		"ga_evals=%d ga_memo_hits=%d model_cache=%d/%d scenario_cache=%d/%d stream_cache=%d/%d digest=%s",
		strings.Join(flows, ","), c.Schedules, c.SimSteps, c.StreamJobs, c.Denials,
		c.GAEvals, c.GAMemoHits, c.ModelHits, c.ModelHits+c.ModelMisses,
		c.ScenarioHits, c.ScenarioHits+c.ScenarioMiss, c.StreamHits, c.StreamHits+c.StreamMisses,
		c.OutputDigest)
}
