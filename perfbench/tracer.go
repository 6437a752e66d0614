package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one call at a layer boundary. An estimated span was not
// timed: it stands for Count calls made inside another layer's
// exported function, priced at the cost per call of a direct call.
type span struct {
	Name      string `json:"name"`
	ID        int    `json:"id"`
	Parent    int    `json:"parent"` // -1 for a root
	Req       int    `json:"req"`
	StartNS   int64  `json:"startNs"`
	EndNS     int64  `json:"endNs"`
	Count     int    `json:"count"`
	Estimated bool   `json:"estimated,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory. A disabled tracer records nothing, so
// the same replay runs traced and untraced. Safe for concurrent use.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its ID.
func (t *tracer) begin(name string, parent, req int) int {
	return t.beginAt(name, parent, req, time.Now())
}

// beginAt opens a span that started at the given time.
func (t *tracer) beginAt(name string, parent, req int, start time.Time) int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req, StartNS: start.Sub(t.t0).Nanoseconds(), Count: 1})
	return id
}

// record adds a closed span for an interval measured elsewhere.
func (t *tracer) record(name string, parent, req int, start, end time.Time) {
	t.endAt(t.beginAt(name, parent, req, start), end)
}

func (t *tracer) end(id int) { t.endAt(id, time.Now()) }

// endAt closes a span at the given time.
func (t *tracer) endAt(id int, at time.Time) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].EndNS = at.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// run times f as a span.
func (t *tracer) run(name string, parent, req int, f func() error) (time.Duration, error) {
	id := t.begin(name, parent, req)
	start := time.Now()
	err := f()
	d := time.Since(start)
	t.end(id)
	return d, err
}

// estimate adds an estimated child of parent: count calls at perCall
// each. It is laid at the start of the parent's interval.
func (t *tracer) estimate(name string, parent, req, count int, perCall time.Duration) int {
	if !t.on || parent < 0 || count <= 0 {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.spans[parent].StartNS
	id := len(t.spans)
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent, Req: req, StartNS: start,
		EndNS: start + int64(count)*perCall.Nanoseconds(), Count: count, Estimated: true,
	})
	return id
}

// residual adds an estimated child of parent covering what the
// parent's duration leaves after its other children: the self time of
// a layer whose exported function runs inside the parent and is not
// timed itself. Its own estimated children go under it afterwards. It
// returns the span's ID and duration.
func (t *tracer) residual(name string, parent, req int) (int, time.Duration) {
	if !t.on || parent < 0 {
		return -1, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	left := p.dur()
	for i := parent + 1; i < len(t.spans); i++ {
		if t.spans[i].Parent == parent {
			left -= t.spans[i].dur()
		}
	}
	left = max(left, 0)
	id := len(t.spans)
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent, Req: req, StartNS: p.StartNS,
		EndNS: p.StartNS + left.Nanoseconds(), Count: 1, Estimated: true,
	})
	return id, left
}

// spanAgg aggregates the spans of one name.
type spanAgg struct {
	calls     int
	self      time.Duration
	total     time.Duration
	estimated bool
	fitted    int // spans whose children outlasted them and were scaled to fit
}

// aggregate computes self time per span name over the subtrees of the
// roots named root: a span's duration minus its children's durations.
// Estimates can outlast the span they sit in (estimation error); then
// that span's children, and their subtrees with them, are scaled down
// to fit it, so self times never go negative and shares add up.
func (t *tracer) aggregate(root string) (map[string]*spanAgg, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	raw := make([]float64, len(t.spans)) // children's summed durations
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			raw[p] += float64(t.spans[i].dur())
		}
	}
	// scaled[i] is span i's duration after fitting; parents precede
	// children, so one forward pass fits top-down.
	scaled := make([]float64, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		scaled[i] = float64(s.dur())
		if p := s.Parent; p >= 0 {
			f := 1.0
			if d := float64(t.spans[p].dur()); d > 0 {
				f = scaled[p] / d
			}
			if raw[p] > 0 {
				f = math.Min(f, scaled[p]/raw[p])
			}
			scaled[i] *= f
		}
	}
	children := make([]float64, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			children[p] += scaled[i]
		}
	}
	inTree := make([]bool, len(t.spans))
	out := map[string]*spanAgg{}
	var rootTotal time.Duration
	for i := range t.spans {
		s := &t.spans[i]
		switch {
		case s.Parent < 0:
			inTree[i] = s.Name == root
			if inTree[i] {
				rootTotal += s.dur()
			}
		default:
			inTree[i] = inTree[s.Parent]
		}
		if !inTree[i] {
			continue
		}
		a := out[s.Name]
		if a == nil {
			a = &spanAgg{}
			out[s.Name] = a
		}
		a.calls += s.Count
		a.total += time.Duration(scaled[i])
		a.estimated = a.estimated || s.Estimated
		if raw[i] > float64(s.dur()) {
			a.fitted++
		}
		a.self += time.Duration(math.Max(0, scaled[i]-children[i]))
	}
	return out, rootTotal
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name && !t.spans[i].Estimated {
			out = append(out, ms(t.spans[i].dur()))
		}
	}
	return out
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	blob, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// layerOf maps a span name to its layer: the module name before the
// first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// layers lists every layer the per-layer report covers, whether or not
// a workload reaches it.
var layers = []string{"thermalsched", "scenario", "cosynth", "sched", "hotspot", "floorplan", "coloop", "runtime", "stream", "service", "jobs", "loadgen"}

// reportSpans prints the self-time table and sets the per-layer
// self_ms, calls and share metrics.
func reportSpans(o *outcome, aggs map[string]*spanAgg, total time.Duration) {
	names := make([]string, 0, len(aggs))
	for n := range aggs {
		names = append(names, n)
	}
	sort.Strings(names)
	o.note("%-34s %10s %12s %8s %s", "span", "calls", "self ms", "share", "")
	byLayer := map[string]*spanAgg{}
	for _, n := range names {
		a := aggs[n]
		label := "measured"
		if a.estimated {
			label = "estimated"
		}
		if a.fitted > 0 {
			label += fmt.Sprintf(", %d fitted", a.fitted)
		}
		o.note("%-34s %10d %12.3f %7.1f%% %s", n, a.calls, ms(a.self), 100*float64(a.self)/float64(total), label)
		l := byLayer[layerOf(n)]
		if l == nil {
			l = &spanAgg{}
			byLayer[layerOf(n)] = l
		}
		l.calls += a.calls
		l.self += a.self
	}
	for _, l := range layers {
		a := byLayer[l]
		if a == nil {
			a = &spanAgg{}
		}
		o.set("layer."+l+".self_ms", ms(a.self), "ms")
		o.set("layer."+l+".calls", float64(a.calls), "count")
		o.set("layer."+l+".share", float64(a.self)/float64(total), "ratio")
	}
}
