// Command perfbench is thermalsched's same-machine benchmark. It drives
// the public API from one process under four seeded workloads and
// prints every end-to-end metric with its unit, the deterministic work
// counters and output digest, and the output-check verdict; the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 1 it instead replays a seeded sample of the workload
// through the layers' exported functions, keeps spans in memory, writes
// them out at the end, and reports the per-layer metrics.
//
// Run it from the repository root through perfbench/run.sh, which
// builds the binary first:
//
//	bash perfbench/run.sh --workload platform-sweep --seed 1 --seconds 16 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run reports. Metrics holds the metrics
// BENCHMARK.json names for this mode; Extra the workload-specific ones
// printed beside them.
type outcome struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metric
	Extra     map[string]metric
	Notes     []string
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.Metrics == nil {
		o.Metrics = map[string]metric{}
	}
	o.Metrics[name] = metric{v, unit}
}

func (o *outcome) extra(name string, v float64, unit string) {
	if o.Extra == nil {
		o.Extra = map[string]metric{}
	}
	o.Extra[name] = metric{v, unit}
}

func (o *outcome) note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// fail records a correctness failure; the run still reports, but
// exits non-zero.
func (o *outcome) fail(format string, args ...any) {
	o.Correct = false
	o.note("FAIL: "+format, args...)
}

type workload struct {
	name string
	why  string
	run  func(seed int64, seconds float64) (*outcome, error)
}

var workloads = []workload{
	{"platform-sweep", "the paper's Tables 1/3 at scale: sched oracle inquiries and hotspot steady state, no transient, GA or HTTP", runPlatformSweep},
	{"cosynthesis", "the paper's Fig. 1a flow: floorplan GA and hotspot model builds; the only workload that runs the GA", runCosynthesis},
	{"closed-loop", "simulate and stream co-simulation: transient stepping and the rise forecaster carry the work, scheduling is small", runClosedLoop},
	{"service", "HTTP mix at small engine cost (one-client latency, open-loop ladder, saturation): decode, validate, encode, queueing and the job journal dominate", runService},
}

func main() {
	name := flag.String("workload", "", "workload: "+workloadNames())
	seed := flag.Int64("seed", defaultSeed, "workload seed (held-out seed: 7919)")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 replays a sample through the layers and reports per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "where the traced run writes its spans")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}

	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Printf("# stamp %s\n", stamp())
	fmt.Printf("# why: %s\n", w.why)

	var out *outcome
	var err error
	if *trace == 1 {
		out, err = runTrace(w.name, *seed, *seconds, *traceDir)
	} else {
		out, err = w.run(*seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if *trace == 0 {
		out.extra("mem_peak_mb", peakRSSMB(), "MB")
	}
	printOutcome(out)
	if !out.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// printOutcome prints the human-readable report, then the result JSON
// as the last line.
func printOutcome(o *outcome) {
	for _, n := range o.Notes {
		fmt.Println("# " + n)
	}
	print := func(label string, m map[string]metric) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("%-10s %-44s %14.6g %s\n", label, k, m[k].Value, m[k].Unit)
		}
	}
	print("metric", o.Metrics)
	print("extra", o.Extra)
	fmt.Printf("# checks: attempted=%d failed=%d correct=%t\n", o.Attempted, o.Failed, o.Correct)
	blob, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, o.Metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(blob))
}

// stamp identifies what was measured and where: commit (when the tree
// is a git checkout), a digest of the module's sources (always), Go
// version, GOMAXPROCS and the CPUs the process may use.
func stamp() string {
	commit := "none"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return fmt.Sprintf("commit=%s src=%s go=%s GOMAXPROCS=%d nproc=%d",
		commit, sourceDigest(), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// sourceDigest hashes the Go sources and go.mod files under the
// working directory (the checkout root), skipping build output.
func sourceDigest() string {
	d := newDigest()
	var walk func(dir string)
	walk = func(dir string) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return
		}
		for _, e := range entries {
			p := dir + "/" + e.Name()
			if e.IsDir() {
				if !strings.HasPrefix(e.Name(), ".") {
					walk(p)
				}
				continue
			}
			if strings.HasSuffix(e.Name(), ".go") || e.Name() == "go.mod" {
				if b, err := os.ReadFile(p); err == nil {
					d.add([]byte(p))
					d.add(b)
				}
			}
		}
	}
	walk(".")
	return d.sum()
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
