package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// The host's speed drifts: on a shared 2-CPU host a fixed CPU-bound
// loop runs anywhere from 0.3x to 1.5x its typical rate over minutes.
// A fixed reference kernel (benchmark code, so no change to the program
// moves it), timed in slots between a workload's requests, tells how
// fast the host ran while the workload was measured; timing metrics are
// scaled to the reference host by it.

// refRate is the reference kernel's typical rate (kernels per second
// on one thread) on the 2-CPU host the bounds were set on.
const refRate = 2000.0

// kernelSlot runs the reference kernel n times on each of threads
// goroutines and returns the time taken: n/refRate seconds on the
// reference host.
func kernelSlot(n, threads int) time.Duration {
	start := time.Now()
	sums := make([]float64, threads)
	var wg sync.WaitGroup
	for t := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				sums[t] += refKernel()
			}
		}()
	}
	wg.Wait()
	d := time.Since(start)
	for _, s := range sums {
		refSink += s
	}
	return d
}

// refSink keeps the kernel's results live.
var refSink float64

// refKernel is a fixed mix of floating-point and memory work: a 48x48
// matrix product and a 4096-element sort, with their allocations.
func refKernel() float64 {
	const n = 48
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%7) + 0.5
		b[i] = float64(i%5) + 0.25
	}
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			for j := 0; j < n; j++ {
				c[i*n+j] += aik * b[k*n+j]
			}
		}
	}
	xs := make([]int, 4096)
	for i := range xs {
		xs[i] = (i * 7919) % 4093
	}
	sort.Ints(xs)
	return c[n+1] + float64(xs[100])
}

// Host stalls only ever add time. On a shared 2-CPU host they come in
// slices of milliseconds, and they hit a given step in one pass far
// more often than in every pass. So the benchmark repeats work that is
// the same in every repeat (the same requests, in the same order, on
// engines in the same state) and keeps each step's least time: its cost
// on a calm host. A step that costs more costs more in every repeat.
// What the least times still share with the host, its speed between
// stalls, the kernel slots measure the same way.

// leastTimes holds each step's least duration over repeats, in seconds.
type leastTimes []float64

func newLeastTimes(n int) leastTimes {
	l := make(leastTimes, n)
	for i := range l {
		l[i] = math.Inf(1)
	}
	return l
}

func (l leastTimes) add(i int, d time.Duration) { l[i] = math.Min(l[i], d.Seconds()) }

func (l leastTimes) sum() float64 {
	var s float64
	for _, v := range l {
		s += v
	}
	return s
}

// kernelSlots runs a reference-kernel slot before every every-th step
// of a repeated pass and keeps each slot's least time over the repeats,
// as the steps do. A slot about as long as the workload's median step
// dodges host stalls about as often as a step does, so the slots' least
// times follow the host's speed as the steps' least times see it.
type kernelSlots struct {
	every, kernels, threads int
	least                   leastTimes
}

func newKernelSlots(steps, every, kernels, threads int) *kernelSlots {
	return &kernelSlots{every: every, kernels: kernels, threads: threads, least: newLeastTimes((steps + every - 1) / every)}
}

// before runs the slot due before step i, if one is.
func (k *kernelSlots) before(i int) {
	if i%k.every == 0 {
		k.least.add(i/k.every, kernelSlot(k.kernels, k.threads))
	}
}

// speed is the host's speed relative to the reference host, as the
// slots' least times see it.
func (k *kernelSlots) speed() float64 {
	return float64(len(k.least)*k.kernels) / refRate / k.least.sum()
}
