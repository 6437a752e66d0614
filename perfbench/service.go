package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	ts "thermalsched"
	"thermalsched/internal/jobs"
	"thermalsched/internal/service"
)

// The service workload sends its mix over a loopback httptest server to
// the internal/service handler in three parts. A closed-loop latency
// step gives the contract's latencies: one client plays a fixed list of
// requests against fresh servers. An open loop follows: seeded Poisson
// arrivals at a fixed ladder of offered rates, each request timed from
// its due time, sent by at most nproc client connections. A closed-loop
// saturation step last measures the service's capacity.
const (
	// serviceNominalRPS is the ladder's nominal rate: an eighth of the
	// goodput measured with a fine ladder on the reference host (1600
	// req/s, see perfbench/README.md).
	serviceNominalRPS = 200
	// latencyLimitMS is the p99 limit goodput is judged against.
	latencyLimitMS = 50
	// lagBoundMS bounds the generator's p99 lateness in a step. A step
	// past it did not offer its rate: past it at the nominal rate, the
	// open loop's figures are invalid, not slow, and are not reported;
	// past it at a higher rate, the step is invalid and ends the goodput
	// search.
	lagBoundMS = 20
	// identitySample caps how many distinct job requests are re-run
	// through sync /v1/run for the byte-identity check (the first in
	// fingerprint order).
	identitySample = 300
	// servicePasses is how many fresh servers the latency and saturation
	// steps each play their request list against.
	servicePasses = 3
	// latencyRPS and saturationRPS size those lists: one client's and
	// nproc clients' completed rates on the reference host (550-760
	// req/s over five runs, 1800-2400 req/s over seven), so each step's
	// passes take about its share of the measured time there.
	latencyRPS    = 700
	saturationRPS = 2000
)

// ladder lists the offered rates as multiples of the nominal rate, in
// the order they run: the nominal rate, then up to 1.25x the measured
// goodput (8x nominal) in steps of a quarter of it. The latency step
// and the saturation step, which give the gated metrics, each take a
// third of the measured time; the nominal step takes half of the last
// third, and the other steps share the rest equally.
var ladder = []float64{1, 2, 4, 6, 8, 10}

type itemKind int

const (
	kindRun itemKind = iota
	kindBatch
	kindJob
)

func (k itemKind) String() string { return [...]string{"run", "batch", "job"}[k] }

// item is one scheduled client request.
type item struct {
	kind itemKind
	reqs []ts.Request // one, except for batches
}

// mix draws the service's requests. The mix is the workload's request
// kinds in equal shares: sync /v1/run of a platform benchmark (Bm1-Bm4),
// of a 4-PE stream and of a generate request; a /v1/batch call carrying
// one request of each of those three kinds; an async job carrying one
// of them, drawn in equal shares; and a repeat of an earlier request,
// as a sixth kind. Kinds come in shuffled decks of one each, so every
// stretch of draws holds the kinds in equal shares and only the seeded
// details vary. history carries the drawn items for repeats.
type mix struct {
	rng     *rand.Rand
	deck    []int
	history []item
}

const (
	mixKinds  = 6 // three sync kinds, batch, job, repeat
	repeatMix = mixKinds - 1
)

func newMix(rng *rand.Rand) *mix { return &mix{rng: rng} }

// next draws the next request.
func (m *mix) next() item {
	if len(m.deck) == 0 {
		m.deck = m.rng.Perm(mixKinds)
	}
	k := m.deck[0]
	m.deck = m.deck[1:]
	if k == repeatMix {
		if len(m.history) > 0 {
			return m.history[m.rng.Intn(len(m.history))]
		}
		k = m.rng.Intn(repeatMix) // nothing to repeat yet
	}
	it := m.fresh(k)
	m.history = append(m.history, it)
	return it
}

// fresh draws a new request of kind k.
func (m *mix) fresh(k int) item {
	rng := m.rng
	kinds := []func() ts.Request{
		func() ts.Request {
			return ts.Request{Flow: ts.FlowPlatform, Benchmark: pick(rng, benchmarks), Policy: pick(rng, platformPolicy)}
		},
		func() ts.Request {
			return ts.Request{Flow: ts.FlowStream, Policy: pick(rng, []string{ts.StreamPolicyFIFO, ts.StreamPolicyGreedy}),
				Stream: &ts.StreamSpec{Seed: rng.Int63n(1 << 40), MinFactor: 0.8, Arrivals: ts.StreamArrivalParams{Horizon: 300}}}
		},
		func() ts.Request {
			spec := scenarioSpec(rng, 20+10*rng.Intn(4), 4)
			return ts.Request{Flow: ts.FlowGenerate, Scenario: &spec}
		},
	}
	switch {
	case k < len(kinds):
		return item{kind: kindRun, reqs: []ts.Request{kinds[k]()}}
	case k == len(kinds):
		reqs := make([]ts.Request, len(kinds))
		for i, f := range kinds {
			reqs[i] = f()
		}
		return item{kind: kindBatch, reqs: reqs}
	default:
		return item{kind: kindJob, reqs: []ts.Request{pick(rng, kinds)()}}
	}
}

// arrival is one scheduled send.
type arrival struct {
	at time.Duration // offset from the step start
	it item
}

// schedule draws a step's Poisson arrivals from the mix, which carries
// its history across steps so repeats can reach back.
func schedule(m *mix, rate, seconds float64) []arrival {
	var out []arrival
	for t := m.rng.ExpFloat64() / rate; t < seconds; t += m.rng.ExpFloat64() / rate {
		out = append(out, arrival{at: time.Duration(t * float64(time.Second)), it: m.next()})
	}
	return out
}

// templates is the warm-up set: the first 120 draws of the mix (enough
// that one set-up takes a good fraction of a second) plus Bm1-Bm4
// under every policy, all as sequential sync runs. Batch entries run
// concurrently and would make the engine's cache counters race, and a
// job's response is its sync twin's.
func templates(seed int64) []item {
	m := newMix(blockRand(seed, 0))
	var out []item
	for i := 0; i < 120; i++ {
		for _, r := range m.next().reqs {
			out = append(out, item{kind: kindRun, reqs: []ts.Request{r}})
		}
	}
	for _, bm := range benchmarks {
		for _, p := range platformPolicy {
			out = append(out, item{kind: kindRun, reqs: []ts.Request{{Flow: ts.FlowPlatform, Benchmark: bm, Policy: p}}})
		}
	}
	return out
}

// server is one service instance behind a loopback HTTP server.
type server struct {
	tr      *tracer // disabled except in the traced run
	eng     *ts.Engine
	svc     *service.Service
	ts      *httptest.Server
	client  *http.Client
	journal string
}

func startServer(workers int, dir string) (*server, error) {
	eng, err := ts.NewEngine(ts.WithWorkers(workers), ts.WithSearchParallelism(workers))
	if err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, "journal-*.jsonl")
	if err != nil {
		return nil, err
	}
	path := f.Name()
	if err := f.Close(); err != nil {
		return nil, err
	}
	svc, err := service.New(eng, service.Config{
		MaxInFlight: workers,
		Jobs:        jobs.Config{Workers: workers, JournalPath: path},
	})
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(svc.Handler())
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     workers,
		MaxIdleConnsPerHost: workers,
		DisableCompression:  true,
	}}
	return &server{tr: newTracer(false), eng: eng, svc: svc, ts: srv, client: client, journal: path}, nil
}

func (s *server) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	if err := s.svc.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: close service: %v\n", err)
	}
	os.Remove(s.journal)
}

// call sends one HTTP request and reads the whole body.
func (s *server) call(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// callResult is the outcome of one client request.
type callResult struct {
	kind      itemKind
	lat       time.Duration // from the due time
	refused   bool          // 429 backpressure: a miss, not a wrong output
	err       error         // a failed output check
	canonical [][]byte      // canonical responses, one per request
	// Traced-run breakdown: client JSON encode+decode time, time spent
	// outside the engine (client latency minus the engine's elapsedMs),
	// and for jobs the status GETs and the server-side queue wait and run.
	codec     time.Duration
	overhead  time.Duration
	polls     int
	queueWait time.Duration
	jobRun    time.Duration
	fresh     bool      // a job that ran its own evaluation
	peaks     []float64 // platform responses' peak temperatures
}

var endpointOf = [...]string{"run", "batch", "jobs"}

// do performs one item, checks its outputs and, when the server's
// tracer is on, records the request's spans under a root that starts
// at the due time.
func (s *server) do(it item, rid int, due time.Time) callResult {
	t := s.tr
	start := time.Now()
	if due.IsZero() {
		due = start
	}
	r := callResult{kind: it.kind}
	root := t.beginAt("client", -1, rid, due)
	defer t.end(root)
	t.record("loadgen.queue", root, rid, due, start)

	var body []byte
	var payload any = it.reqs[0]
	if it.kind == kindBatch {
		payload = it.reqs
	}
	d, err := t.run("service.codec", root, rid, func() (err error) {
		body, err = json.Marshal(payload)
		return err
	})
	r.codec += d
	if err != nil {
		r.err = err
		return r
	}
	// call sends one request as a span and returns the span.
	call := func(name, method, path string, body []byte) (int, []byte, int, time.Duration, error) {
		id := t.begin(name, root, rid)
		t0 := time.Now()
		code, b, err := s.call(method, path, body)
		d := time.Since(t0)
		t.end(id)
		return code, b, id, d, err
	}
	// decode decodes a body as a span.
	decode := func(b []byte, v any) error {
		d, err := t.run("service.codec", root, rid, func() error { return json.Unmarshal(b, v) })
		r.codec += d
		return err
	}

	switch it.kind {
	case kindRun, kindBatch:
		path := "/v1/run"
		if it.kind == kindBatch {
			path = "/v1/batch"
		}
		code, b, span, d, err := call("service.http."+endpointOf[it.kind], http.MethodPost, path, body)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("%s: HTTP %d: %s", path, code, b)
		}
		if err != nil {
			r.err = err
			return r
		}
		var resps []*ts.Response
		if it.kind == kindBatch {
			err = decode(b, &resps)
		} else {
			var resp ts.Response
			err = decode(b, &resp)
			resps = []*ts.Response{&resp}
		}
		if err == nil {
			err = r.checkAll(it.reqs, resps)
		}
		if err != nil {
			r.err = err
			return r
		}
		// Batch entries run concurrently; the slowest bounds the call.
		var engine float64
		for _, resp := range resps {
			engine = math.Max(engine, resp.ElapsedMS)
		}
		engineDur := time.Duration(engine * float64(time.Millisecond))
		t.estimate("thermalsched.run."+string(it.reqs[0].Flow), span, rid, 1, engineDur)
		r.overhead = d - engineDur
	case kindJob:
		// The documented client: submit, follow the job's event stream
		// until it closes after the terminal frame, then fetch the result
		// with one GET. A submit answered from the store is born done.
		code, b, _, _, err := call("service.http.jobs_submit", http.MethodPost, "/v1/jobs", body)
		if err == nil && code == http.StatusTooManyRequests {
			r.refused = true
			return r
		}
		if err == nil && code != http.StatusAccepted {
			err = fmt.Errorf("/v1/jobs: HTTP %d: %s", code, b)
		}
		var job jobs.Job
		if err == nil {
			err = decode(b, &job)
		}
		events := -1
		for err == nil && !job.State.Terminal() {
			code, b, events, _, err = call("service.http.jobs_events", http.MethodGet, "/v1/jobs/"+job.ID+"/events", nil)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("job events: HTTP %d: %s", code, b)
			}
			if err != nil {
				break
			}
			r.polls++
			code, b, _, _, err = call("service.http.jobs_get", http.MethodGet, "/v1/jobs/"+job.ID, nil)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("GET job: HTTP %d: %s", code, b)
			}
			if err == nil {
				job = jobs.Job{}
				err = decode(b, &job)
			}
		}
		if err == nil && job.State != jobs.StateDone {
			err = fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
		}
		if err == nil {
			err = r.checkAll(it.reqs, []*ts.Response{job.Response})
		}
		if err != nil {
			r.err = err
			return r
		}
		if r.fresh = !job.Coalesced && !job.FromJournal && job.StartedAt > 0; r.fresh {
			// The jobs layer's time comes from the server's own job
			// timestamps (millisecond resolution): queue wait, then the
			// run, which holds the engine's elapsedMs.
			engine := time.Duration(job.Response.ElapsedMS * float64(time.Millisecond))
			r.queueWait = time.Duration(job.StartedAt-job.SubmittedAt) * time.Millisecond
			r.jobRun = time.Duration(job.FinishedAt-job.StartedAt) * time.Millisecond
			r.overhead = time.Since(start) - engine
			t.estimate("jobs.queue_wait", events, rid, 1, r.queueWait)
			run := t.estimate("jobs.run", events, rid, 1, r.jobRun)
			t.estimate("thermalsched.run."+string(it.reqs[0].Flow), run, rid, 1, engine)
		}
	}
	return r
}

// checkAll checks every response against its request and keeps its
// canonical form.
func (r *callResult) checkAll(reqs []ts.Request, resps []*ts.Response) error {
	if len(resps) != len(reqs) {
		return fmt.Errorf("%d responses for %d requests", len(resps), len(reqs))
	}
	for i := range reqs {
		if err := checkResponse(&reqs[i], resps[i]); err != nil {
			return err
		}
		c, err := canonical(resps[i])
		if err != nil {
			return err
		}
		r.canonical = append(r.canonical, c)
		if reqs[i].Flow == ts.FlowPlatform {
			r.peaks = append(r.peaks, resps[i].Metrics.MaxTemp)
		}
	}
	return nil
}

// stepStats summarizes one ladder step.
type stepStats struct {
	rate      float64
	scheduled int
	results   []callResult
	lat       []float64 // ms, completed requests only
	failed    int
	refused   int
	unsent    int       // dropped once the backlog ran away
	lag       []float64 // generator lateness, ms
	drainMS   float64   // last completion after the step's end
	wall      float64   // step wall time including the drain, s (saturation: its chunks' least times summed)
	polls     int
	jobs      int
}

// valid reports whether the generator kept to the step's schedule.
func (st *stepStats) valid() bool { return quantile(st.lag, 0.99) <= lagBoundMS }

// meets reports whether the step met the latency limit with every
// request served and the backlog cleared within the limit.
func (st *stepStats) meets() bool {
	if st.failed+st.refused+st.unsent > 0 || len(st.lat) == 0 {
		return false
	}
	return quantile(st.lat, 0.99) <= latencyLimitMS && st.drainMS <= latencyLimitMS
}

func (st *stepStats) String() string {
	return fmt.Sprintf("step %4.0f/s: sent %d, completed %d, failed %d, refused %d, unsent %d, p50 %.2f ms, p99 %.2f ms, drain %.1f ms, lag p99 %.2f ms, gets/job %.1f, valid=%t, meets=%t",
		st.rate, st.scheduled-st.unsent, len(st.lat), st.failed, st.refused, st.unsent,
		median(st.lat), quantile(st.lat, 0.99), st.drainMS, quantile(st.lag, 0.99),
		float64(st.polls)/math.Max(1, float64(st.jobs)), st.valid(), st.meets())
}

// runStep offers one ladder rate and waits for every request to finish.
func (s *server) runStep(arr []arrival, rate, seconds float64, workers int, out *outputs) *stepStats {
	st := &stepStats{rate: rate, scheduled: len(arr)}
	type sent struct {
		it  item
		rid int
		due time.Time
	}
	// Both channels are sized to the number of sends, so neither the
	// generator nor a worker ever blocks on them.
	queue := make(chan sent, len(arr))
	results := make(chan callResult, len(arr))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for x := range queue {
				r := s.do(x.it, x.rid, x.due)
				r.lat = time.Since(x.due)
				r.err = out.record(x.it, r)
				r.canonical = nil
				results <- r
			}
		}()
	}
	// A backlog of more than maxBacklog seconds of arrivals means the
	// rate is past capacity; the rest of the step is dropped as misses.
	const maxBacklog = 2.0
	start := time.Now()
	for i, a := range arr {
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if float64(len(queue)) > maxBacklog*rate {
			st.unsent = len(arr) - i
			break
		}
		st.lag = append(st.lag, ms(time.Since(due)))
		queue <- sent{a.it, i, due}
	}
	close(queue)
	wg.Wait()
	close(results)
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	st.drainMS = math.Max(0, ms(time.Since(end)))
	st.wall = time.Since(start).Seconds()
	for r := range results {
		st.add(r)
	}
	return st
}

// add accounts for one finished request.
func (st *stepStats) add(r callResult) {
	st.results = append(st.results, r)
	switch {
	case r.refused:
		st.refused++
	case r.err != nil:
		st.failed++
	default:
		st.lat = append(st.lat, ms(r.lat))
	}
	if r.kind == kindJob {
		st.jobs++
		st.polls += r.polls
	}
}

// saturate plays items from workers closed-loop clients at once, each
// sending the next item as soon as its previous request returned, in
// chunks of satChunk, against servicePasses servers in turn, each set
// up afresh and warmed with the templates. The completed rate is the
// service's capacity at nproc connections: unlike an offered rate below
// capacity, it moves with the cost of every request. Each chunk keeps
// its least time over the passes (see leastTimes), and kernel slots on
// every CPU, about as long as a chunk, run between the chunks.
func saturate(o *outcome, items, warm []item, workers int, out *outputs) (*stepStats, *kernelSlots, error) {
	const satChunk = 100
	chunks := (len(items) + satChunk - 1) / satChunk
	times := newLeastTimes(chunks)
	slots := newKernelSlots(chunks, 5, 100, workers)
	st := &stepStats{}
	var mu sync.Mutex
	for pass := 0; pass < servicePasses; pass++ {
		srv, _, err := freshServer(o, warm, workers, passHooks{})
		if err != nil {
			return nil, nil, err
		}
		runtime.GC()
		for c := 0; c < chunks; c++ {
			slots.before(c)
			next, hi := c*satChunk, min((c+1)*satChunk, len(items))
			var wg sync.WaitGroup
			start := time.Now()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						mu.Lock()
						i := next
						next++
						mu.Unlock()
						if i >= hi {
							return
						}
						t0 := time.Now()
						r := srv.do(items[i], i, t0)
						r.lat = time.Since(t0)
						r.err = out.record(items[i], r)
						r.canonical = nil
						mu.Lock()
						st.add(r)
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
			times.add(c, time.Since(start))
		}
		srv.close()
	}
	st.scheduled = servicePasses * len(items)
	st.wall = times.sum()
	st.rate = float64(len(items)) / st.wall
	return st, slots, nil
}

// outputs collects what the run must verify after the ladder: the
// first output-check failure, each distinct sync request's canonical
// response (a repeat must match it), and each async job's response
// (which must match a sync /v1/run of the same request).
type outputs struct {
	mu       sync.Mutex
	firstErr error
	sync     map[string][32]byte // request fingerprint -> canonical hash
	async    map[string][]byte   // request fingerprint -> canonical bytes
	asyncReq map[string]ts.Request
}

func newOutputs() *outputs {
	return &outputs{sync: map[string][32]byte{}, async: map[string][]byte{}, asyncReq: map[string]ts.Request{}}
}

func (o *outputs) record(it item, r callResult) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if r.err == nil && !r.refused {
		for i, c := range r.canonical {
			fp := it.reqs[i].Fingerprint()
			if it.kind == kindJob {
				o.async[fp] = c
				o.asyncReq[fp] = it.reqs[i]
				continue
			}
			h := sha256.Sum256(c)
			if prev, ok := o.sync[fp]; ok && prev != h {
				r.err = fmt.Errorf("repeat of %s request returned different bytes", it.reqs[i].Flow)
			}
			o.sync[fp] = h
		}
	}
	if r.err != nil && o.firstErr == nil {
		o.firstErr = r.err
	}
	return r.err
}

// setUpService starts the server from scratch setupRepeats times, each
// followed by a warm-up pass over the templates, keeps the last, and
// reports setup_s (see setSetup). The warm-up's outputs and engine
// counters must repeat exactly.
func setUpService(o *outcome, seed int64, workers int) (*server, error) {
	warm := templates(seed)
	var srv *server
	var probe *counters
	steps := newLeastTimes(1 + len(warm))
	slots := newServiceSlots(len(warm))
	var wholes []float64
	for k := 0; k < setupRepeats; k++ {
		if srv != nil {
			srv.close()
		}
		runtime.GC()
		t0 := time.Now()
		s, c, err := freshServer(o, warm, workers, passHooks{times: steps, before: slots.before})
		if err != nil {
			return nil, err
		}
		wholes = append(wholes, time.Since(t0).Seconds())
		srv = s
		if probe == nil {
			probe = c
		} else if c.String() != probe.String() {
			o.fail("setup pass %d counters differ:\n#   %s\n#   %s", k, probe, c)
		}
	}
	o.note("counters (warm-up, fresh engine): %s", probe)
	setSetup(o, steps, slots, wholes)
	return srv, nil
}

// freshServer starts a server with its journal under .bench_build/tmp
// and warms it with sequential sync runs of the templates, checking
// every output; it returns the warm-up's counters and output digest.
// h.times, when set, gets the server start's time as step 0 and each
// warm-up request's after it; h.before runs ahead of each request.
func freshServer(o *outcome, warm []item, workers int, h passHooks) (*server, *counters, error) {
	dir := ".bench_build/tmp"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	srv, err := startServer(workers, dir)
	if err != nil {
		return nil, nil, fmt.Errorf("start server: %w", err)
	}
	if h.times != nil {
		h.times.add(0, time.Since(t0))
	}
	c := &counters{}
	d := newDigest()
	for i, it := range warm {
		if h.before != nil {
			h.before(i)
		}
		t0 := time.Now()
		r := srv.do(it, 0, time.Time{})
		if h.times != nil {
			h.times.add(1+i, time.Since(t0))
		}
		o.Attempted++
		if r.err != nil {
			o.Failed++
			o.fail("warm-up %s %s: %v", it.kind, it.reqs[0].Flow, r.err)
			continue
		}
		for i, b := range r.canonical {
			d.add(b)
			var resp ts.Response
			if err := json.Unmarshal(b, &resp); err != nil {
				srv.close()
				return nil, nil, err
			}
			c.observe(&it.reqs[i], &resp)
		}
	}
	c.engineStats(srv.eng)
	c.OutputDigest = d.sum()
	return srv, c, nil
}

func runService(seed int64, seconds float64) (*outcome, error) {
	o := &outcome{Correct: true}
	heap := startHeapSampler()
	workers := runtime.NumCPU()
	srv, err := setUpService(o, seed, workers)
	if err != nil {
		return nil, err
	}
	defer srv.close()

	out := newOutputs()
	m := newMix(rand.New(rand.NewSource(seed*1_000_003 + 99)))
	share := seconds / 3
	items := make([]item, int(share/servicePasses*latencyRPS))
	for i := range items {
		items[i] = m.next()
	}
	warm := templates(seed)
	least, slots, first, err := latencyStep(o, items, warm, workers, out)
	if err != nil {
		return nil, err
	}
	speed := slots.speed()
	o.set("latency_p50_ms", median(least)*speed, "ms")
	o.set("latency_p90_ms", quantile(least, 0.90)*speed, "ms")
	o.extra("latency_p99_ms", quantile(least, 0.99)*speed, "ms")
	o.extra("latency_p50_ms.raw", median(least), "ms")
	o.extra("latency_p90_ms.raw", quantile(least, 0.90), "ms")
	o.extra("host_speed", speed, "ratio")
	o.note("latency step: %d requests x %d passes, %d beyond p90, %d beyond p99",
		len(least), servicePasses, beyond(least, 0.90), beyond(least, 0.99))
	// The list is fixed by the seed and every request completes, so its
	// mean platform peak is deterministic.
	var peaks []float64
	for _, r := range first {
		peaks = append(peaks, r.peaks...)
	}
	o.set("peak_temp_c", mean(peaks), "C")

	var nominal *stepStats
	goodput := 0.0
	searching := true // no step has lagged past the bound yet
	for _, mult := range ladder {
		rate := mult * serviceNominalRPS
		secs := share / 2
		if mult != 1 {
			secs = share / 2 / float64(len(ladder)-1)
		}
		arr := schedule(m, rate, secs)
		runtime.GC()
		st := srv.runStep(arr, rate, secs, workers, out)
		o.Attempted += st.scheduled
		o.Failed += st.failed
		searching = searching && st.valid()
		if searching && st.meets() {
			goodput = math.Max(goodput, rate)
		}
		o.note("%s", st)
		if mult == 1 {
			nominal = st
		}
	}
	satItems := make([]item, int(share/servicePasses*saturationRPS))
	for i := range satItems {
		satItems[i] = m.next()
	}
	sat, satSlots, err := saturate(o, satItems, warm, workers, out)
	if err != nil {
		return nil, err
	}
	o.Attempted += sat.scheduled
	o.Failed += sat.failed
	o.note("saturation: %d clients, %d requests x %d passes, least chunk times sum to %.2f s (%.0f/s), failed %d, refused %d, p50 %.2f ms, p99 %.2f ms",
		workers, len(satItems), servicePasses, sat.wall, sat.rate, sat.failed, sat.refused, median(sat.lat), quantile(sat.lat, 0.99))
	if out.firstErr != nil {
		o.fail("output check: %v", out.firstErr)
	}
	o.set("throughput_rps", sat.rate/satSlots.speed(), "1/s")
	o.extra("throughput_rps.raw", sat.rate, "1/s")
	o.extra("host_speed.saturation", satSlots.speed(), "ratio")
	o.extra("loadgen.lag_p99_ms", quantile(nominal.lag, 0.99), "ms")
	if nominal.valid() {
		o.extra("open_loop.latency_p50_ms", median(nominal.lat), "ms")
		o.extra("open_loop.latency_p95_ms", quantile(nominal.lat, 0.95), "ms")
		o.extra("open_loop.latency_p99_ms", quantile(nominal.lat, 0.99), "ms")
		o.extra("goodput_rps", goodput, "1/s")
	} else {
		// The open loop's figures are discarded, not reported as slow.
		o.note("open loop invalid: load generator p99 lag %.1f ms at the nominal rate exceeds the %d ms bound",
			quantile(nominal.lag, 0.99), lagBoundMS)
	}
	o.extra("failed_ratio", float64(o.Failed)/math.Max(1, float64(o.Attempted)), "ratio")
	checkAsyncIdentity(o, srv, out)
	o.set("heap_peak_mb", heap.stop(), "MB")
	return o, nil
}

// latencyStep plays items one at a time from a single client, a closed
// loop, against servicePasses servers in turn, each set up afresh and
// warmed with the templates. It returns each request's least latency
// over the passes in ms (see leastTimes), the kernel slots run between
// the requests, and the first pass's results. Fresh servers make every
// pass do the same work; on one server a job's repeat would be answered
// from the job store.
func latencyStep(o *outcome, items []item, warm []item, workers int, out *outputs) ([]float64, *kernelSlots, []callResult, error) {
	times := newLeastTimes(len(items))
	slots := newServiceSlots(len(items))
	var first []callResult
	for pass := 0; pass < servicePasses; pass++ {
		srv, _, err := freshServer(o, warm, workers, passHooks{})
		if err != nil {
			return nil, nil, nil, err
		}
		runtime.GC()
		for i, it := range items {
			slots.before(i)
			t0 := time.Now()
			r := srv.do(it, i, t0)
			r.lat = time.Since(t0)
			times.add(i, r.lat)
			if r.refused {
				// One client never passes the in-flight limit.
				r.err = errors.New("refused with one client")
			}
			r.err = out.record(it, r)
			r.canonical = nil
			o.Attempted++
			if r.err != nil {
				o.Failed++
				continue
			}
			if pass == 0 {
				first = append(first, r)
			}
		}
		srv.close()
	}
	least := make([]float64, len(times))
	for i, v := range times {
		least[i] = v * 1000
	}
	return least, slots, first, nil
}

// newServiceSlots: the median service request takes about as long as
// one reference kernel, on the one CPU a single client keeps busy.
func newServiceSlots(steps int) *kernelSlots { return newKernelSlots(steps, 5, 1, 1) }

// checkAsyncIdentity re-runs distinct job requests through sync
// /v1/run: each async response must be byte-identical once elapsedMs
// is zeroed.
func checkAsyncIdentity(o *outcome, srv *server, out *outputs) {
	fps := make([]string, 0, len(out.async))
	for fp := range out.async {
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	if len(fps) > identitySample {
		fps = fps[:identitySample]
	}
	mismatched := 0
	for _, fp := range fps {
		req := out.asyncReq[fp]
		r := srv.do(item{kind: kindRun, reqs: []ts.Request{req}}, 0, time.Time{})
		o.Attempted++
		if r.err == nil && !bytes.Equal(r.canonical[0], out.async[fp]) {
			r.err = errors.New("async job response differs from sync /v1/run")
		}
		if r.err != nil {
			o.Failed++
			mismatched++
			if mismatched == 1 {
				o.fail("async identity (%s): %v", req.Flow, r.err)
			}
		}
	}
	o.note("async identity: %d distinct job requests checked against sync /v1/run, %d mismatched", len(fps), mismatched)
}
