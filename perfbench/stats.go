package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile of vals by linear interpolation
// between closest ranks (vals need not be sorted; it is not modified).
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// beyond counts the samples strictly above the q-quantile: a tail
// percentile is only trustworthy with at least ten of them.
func beyond(vals []float64, q float64) int {
	t := quantile(vals, q)
	n := 0
	for _, v := range vals {
		if v > t {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// liveHeapMB is the live heap as of the last garbage collection.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// heapSampler polls the live heap (what the last garbage collection
// found live) every 10 ms. Unlike the resident set, it does not depend
// on how far the heap overshot between collections, which varies with
// host speed. Callers sample over a fixed amount of work, so the
// samples cover the same work on any host.
type heapSampler struct {
	quit, done chan struct{}
	samples    []float64 // MB
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			h.samples = append(h.samples, liveHeapMB())
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak live heap in MB, taken as the
// 95th percentile of the samples so that one collection landing on a
// transient does not set it.
func (h *heapSampler) stop() float64 {
	close(h.quit)
	<-h.done
	return quantile(h.samples, 0.95)
}
