package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pchls/internal/bench"
	"pchls/internal/cache"
	"pchls/internal/cdfg"
	"pchls/internal/core"
	"pchls/internal/explore"
	"pchls/internal/gen"
	"pchls/internal/library"
	"pchls/internal/sched"
	"pchls/internal/server"
)

// serveMix drives an in-process server.New(Config{}) over loopback HTTP
// with a closed loop of nproc clients, each holding one keep-alive
// connection. The seeded request stream is mostly POST /v1/synthesize,
// plus a few percent /v1/batch and single-pass /v1/pareto on small grids.
// Built-in benchmark points repeat (cache hits); inline generated graphs
// are new keys when first seen (cache misses) and some repeat later. Every
// body must be byte-identical to its key's reference: a direct in-process
// engine call for every built-in key and a seeded sample of inline keys,
// and the key's first body otherwise.
type serveMix struct {
	seed    int64
	lib     *library.Library
	keys    []*serveKey
	reqs    []serveReq
	hot     int // keys[:hot] are the built-in (hot) keys
	clients int

	srv     *server.Server
	base    string
	served  chan error
	firsts  []atomic.Pointer[response] // per key: first body seen this phase
	pos     atomic.Int64               // next stream position
	stopped atomic.Bool
}

// serveKey is one distinct request (one cache key).
type serveKey struct {
	kind       string      // "synthesize" or "pareto"
	name       string      // built-in benchmark name; "" for an inline graph
	g          *cdfg.Graph // nil for an inline key until graph() parses it
	graphJSON  []byte      // an inline key's graph, as the request carries it
	nodes      int
	cons       core.Constraints
	singlePass bool
	deadlines  []int     // pareto grid
	powers     []float64 // pareto grid
	body       []byte    // standalone request body
	ref        *response // reference response; nil when not sampled
	design     *core.Design
}

type response struct {
	status int
	body   []byte
}

// serveReq is one entry of the request stream.
type serveReq struct {
	path   string
	body   []byte
	keys   []int32 // the keys it asks for (several for a batch)
	repeat bool    // every key was asked for earlier in the stream
}

// Stream shape. serveRate bounds the request rate the stream is sized for;
// a phase that exhausts it ends early.
const (
	serveNewShare    = 0.10 // new inline keys (misses)
	serveBatchShare  = 0.03 // /v1/batch of serveBatchItems items
	serveParetoShare = 0.02 // /v1/pareto on a built-in small grid
	serveInlineShare = 0.35 // of the remaining repeats, recent inline keys
	serveBatchItems  = 4
	serveRecent      = 256  // repeats of inline keys draw from the last serveRecent
	serveRate        = 7000 // requests per second the stream is sized for
	serveRefEvery    = 8    // every serveRefEvery-th inline key gets a reference...
	serveRefKeys     = 512  // ...among the first serveRefKeys
)

// Built-in keys: every benchmark at its fastest-ASAP length + 3 under these
// caps (SynthesizeBest, the service default), and single-pass pareto grids.
var (
	serveCaps         = []float64{10, 15, 25, 40, 80}
	serveParetoBench  = []string{"hal", "cosine", "ar"}
	serveParetoPowers = []float64{15, 30}
)

func (w *serveMix) setup(seed int64, seconds int, tr *tracer) error {
	if err := w.generate(seed, seconds*serveRate, tr); err != nil {
		return err
	}
	for i, k := range w.keys {
		inline := i - w.hot
		if i < w.hot || (inline < serveRefKeys && inline%serveRefEvery == 0) {
			if err := k.reference(w.lib); err != nil {
				return err
			}
		}
	}
	return w.reset()
}

// generate derives the keys and a stream of n requests from the seed.
func (w *serveMix) generate(seed int64, n int, tr *tracer) error {
	w.seed = seed
	w.lib = library.Table1()
	w.clients = runtime.NumCPU()
	w.keys = w.keys[:0]
	if err := w.addHotKeys(); err != nil {
		return err
	}
	w.hot = len(w.keys)
	w.genStream(n, tr)
	return nil
}

func (w *serveMix) addHotKeys() error {
	for _, name := range []string{"hal", "cosine", "elliptic", "fir16", "ar", "diffeq2", "fft8"} {
		g, err := bench.ByName(name)
		if err != nil {
			return err
		}
		asap, err := sched.ASAP(g, sched.UniformFastest(w.lib))
		if err != nil {
			return err
		}
		T := asap.Length() + classicSlack
		for _, p := range serveCaps {
			k := &serveKey{kind: "synthesize", name: name, g: g, cons: core.Constraints{Deadline: T, PowerMax: p}}
			k.body = mustJSON(map[string]any{"benchmark": name, "deadline": T, "power_max": p})
			w.keys = append(w.keys, k)
		}
	}
	for _, name := range serveParetoBench {
		g, err := bench.ByName(name)
		if err != nil {
			return err
		}
		asap, err := sched.ASAP(g, sched.UniformFastest(w.lib))
		if err != nil {
			return err
		}
		T := asap.Length() + classicSlack
		k := &serveKey{kind: "pareto", name: name, g: g, singlePass: true,
			deadlines: []int{T, T + 4}, powers: serveParetoPowers}
		k.body = mustJSON(map[string]any{"benchmark": name, "deadlines": k.deadlines, "powers": k.powers, "single_pass": true})
		w.keys = append(w.keys, k)
	}
	return nil
}

// newInlineKey generates the k-th inline key: a layered graph of 16..24
// computation nodes at 1.3..2x its fastest critical path and 3..8x its
// power floor under Table 1, synthesized single-pass. About 95% of these
// points are feasible, so a miss runs the engine and encodes a design (a
// cap of 1.5..4x the floor left 86% infeasible, and misses cost little
// more than hits). Only the request body is kept; its graph is parsed back
// from it when needed, which is also how the daemon sees it.
func (w *serveMix) newInlineKey(k int, tr *tracer) *serveKey {
	r := rand.New(rand.NewSource(w.seed*1000003 + int64(k)))
	s := tr.start("gen.instance", 0, 0)
	g := gen.Graph(r.Int63(), gen.GraphConfig{Nodes: 16 + r.Intn(9)})
	tr.end(s)
	g.Name = fmt.Sprintf("inline-%d-%d", w.seed, k)
	cp, _ := g.CriticalPath(func(n cdfg.Node) int {
		m, err := w.lib.Fastest(n.Op)
		if err != nil {
			return 1
		}
		return m.Delay
	})
	T := int(math.Ceil(float64(cp) * (1.3 + 0.7*r.Float64())))
	floor, _ := w.lib.MinPowerFloor(g)
	P := math.Round(floor*(3+5*r.Float64())*100) / 100
	gj := mustJSON(g)
	body := append(make([]byte, 0, len(gj)+96), `{"graph":`...)
	body = append(body, gj...)
	graphJSON := body[len(body)-len(gj):]
	body = fmt.Appendf(body, `,"deadline":%d,"power_max":%s,"single_pass":true}`, T, strconv.FormatFloat(P, 'g', -1, 64))
	return &serveKey{kind: "synthesize", nodes: g.N(), graphJSON: graphJSON, body: body,
		cons: core.Constraints{Deadline: T, PowerMax: P}, singlePass: true}
}

// genStream derives n requests from the seed.
func (w *serveMix) genStream(n int, tr *tracer) {
	r := rand.New(rand.NewSource(w.seed))
	seen := make(map[int32]bool)
	var recent []int32 // inline keys, oldest first
	hotSynth := w.hot - len(serveParetoBench)
	pickRepeat := func() int32 {
		if len(recent) > 8 && r.Float64() < serveInlineShare {
			// Skip the newest few so a repeat rarely races its own miss.
			lo := max(0, len(recent)-serveRecent)
			return recent[lo+r.Intn(len(recent)-8-lo)]
		}
		return int32(r.Intn(hotSynth))
	}
	w.reqs = make([]serveReq, 0, n)
	for len(w.reqs) < n {
		var req serveReq
		switch x := r.Float64(); {
		case x < serveNewShare:
			id := int32(len(w.keys))
			w.keys = append(w.keys, w.newInlineKey(len(w.keys)-w.hot, tr))
			recent = append(recent, id)
			req = serveReq{path: "/v1/synthesize", keys: []int32{id}}
		case x < serveNewShare+serveBatchShare:
			req = serveReq{path: "/v1/batch"}
			for i := 0; i < serveBatchItems; i++ {
				req.keys = append(req.keys, pickRepeat())
			}
		case x < serveNewShare+serveBatchShare+serveParetoShare:
			req = serveReq{path: "/v1/pareto", keys: []int32{int32(hotSynth + r.Intn(len(serveParetoBench)))}}
		default:
			req = serveReq{path: "/v1/synthesize", keys: []int32{pickRepeat()}}
		}
		req.repeat = true
		for _, k := range req.keys {
			req.repeat = req.repeat && seen[k]
			seen[k] = true
		}
		if req.path == "/v1/batch" {
			items := make([]json.RawMessage, len(req.keys))
			for i, k := range req.keys {
				items[i] = mustJSON(map[string]json.RawMessage{"synthesize": w.keys[k].body})
			}
			req.body = mustJSON(map[string]any{"requests": items})
		} else {
			req.body = w.keys[req.keys[0]].body
		}
		w.reqs = append(w.reqs, req)
	}
}

// reference computes the key's expected response with a direct engine
// call, rendered the way the service renders it.
func (k *serveKey) reference(lib *library.Library) error {
	g, err := k.graph()
	if err != nil {
		return err
	}
	k.g = g
	if k.kind == "pareto" {
		body, err := paretoReference(k.g, lib, k.deadlines, k.powers)
		if err != nil {
			return fmt.Errorf("pareto reference %s: %w", k.name, err)
		}
		k.ref = &response{http.StatusOK, body}
		return nil
	}
	var d *core.Design
	if k.singlePass {
		d, err = core.Synthesize(k.g, lib, k.cons, core.Config{Workers: 1})
	} else {
		d, err = core.SynthesizeBest(k.g, lib, k.cons, core.Config{Workers: 1})
	}
	if errors.Is(err, core.ErrInfeasible) || errors.Is(err, core.ErrUncovered) {
		body, merr := json.MarshalIndent(map[string]string{"error": err.Error()}, "", "  ")
		if merr != nil {
			return merr
		}
		k.ref = &response{http.StatusUnprocessableEntity, body}
		return nil
	}
	if err != nil {
		return fmt.Errorf("reference %s: %w", k.g.Name, err)
	}
	body, err := d.JSON()
	if err != nil {
		return err
	}
	k.ref, k.design = &response{http.StatusOK, body}, d
	return nil
}

// paretoReference renders a /v1/pareto response body for a single-pass
// KiBaM front over the grid.
func paretoReference(g *cdfg.Graph, lib *library.Library, deadlines []int, powers []float64) ([]byte, error) {
	battery, err := explore.DefaultBattery(g, lib, "kibam")
	if err != nil {
		return nil, err
	}
	front, err := explore.ExplorePareto(g, lib, explore.ParetoConfig{
		Deadlines: deadlines, Powers: powers, Battery: battery, MaxPeriods: 1 << 20,
		SinglePass: true, Workers: 1, Config: core.Config{Workers: 1},
	})
	if err != nil {
		return nil, err
	}
	type point struct {
		Deadline int             `json:"deadline"`
		Power    float64         `json:"power"`
		Area     float64         `json:"area"`
		Latency  int             `json:"latency"`
		Peak     float64         `json:"peak_power"`
		Lifetime int             `json:"lifetime"`
		Design   json.RawMessage `json:"design"`
	}
	out := struct {
		Benchmark string  `json:"benchmark"`
		Battery   string  `json:"battery"`
		Evaluated int     `json:"evaluated"`
		Feasible  int     `json:"feasible"`
		Points    []point `json:"points"`
	}{front.Benchmark, battery.Model(), front.Evaluated, front.Feasible, []point{}}
	for _, p := range front.Points {
		d, err := p.Design.JSON()
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, point{p.Deadline, p.PowerMax, p.Area, p.Latency, p.Peak, p.Lifetime, d})
	}
	return json.MarshalIndent(out, "", "  ")
}

// reset boots a fresh daemon (cold cache) and rewinds the stream.
func (w *serveMix) reset() error {
	w.stop()
	w.srv = server.New(server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.served = make(chan error, 1)
	go func(srv *server.Server) { w.served <- srv.Serve(ln) }(w.srv)
	w.stopped.Store(false)
	w.firsts = make([]atomic.Pointer[response], len(w.keys))
	w.pos.Store(0)
	return nil
}

// stop shuts the daemon down and waits for its Serve loop to return.
func (w *serveMix) stop() {
	if w.srv == nil || w.stopped.Swap(true) {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.srv.Shutdown(ctx) // a drain past the timeout only leaks until exit
	<-w.served
}

func (w *serveMix) close() { w.stop() }

func (w *serveMix) inputs() inputInfo {
	h := sha256.New()
	fmt.Fprintf(h, "serve-mix\n%s", w.lib.Text())
	for _, k := range w.keys {
		h.Write(k.body)
		h.Write([]byte{'\n'})
	}
	paths := map[string]int{}
	repeats := 0
	for _, r := range w.reqs {
		fmt.Fprintf(h, "%s %v\n", r.path, r.keys)
		paths[r.path]++
		if r.repeat {
			repeats++
		}
	}
	nodes := []int{}
	refs := 0
	for _, k := range w.keys[w.hot:] {
		nodes = append(nodes, k.nodes)
		if k.ref != nil {
			refs++
		}
	}
	lo, hi := minMax(nodes)
	mix := map[string]float64{}
	for p, n := range paths {
		mix[p] = float64(n) / float64(len(w.reqs))
	}
	// Code paths of the inline keys with a feasible reference design.
	inlineRegimes := map[string]int{}
	for _, k := range w.keys[w.hot:] {
		if k.design != nil {
			inlineRegimes[regime(k.design)]++
		}
	}
	feasible := 0
	for _, k := range w.keys[:w.hot] {
		if k.ref != nil && k.ref.status == http.StatusOK {
			feasible++
		}
	}
	return inputInfo{
		Digest: fmt.Sprintf("sha256:%x", h.Sum(nil)),
		Properties: map[string]any{
			"stream_requests":      len(w.reqs),
			"stream_repeat_share":  float64(repeats) / float64(len(w.reqs)),
			"endpoint_mix":         mix,
			"hot_keys":             w.hot,
			"hot_keys_feasible":    feasible,
			"inline_keys":          len(w.keys) - w.hot,
			"inline_keys_with_ref": refs,
			"inline_nodes_min":     lo,
			"inline_nodes_max":     hi,
			"inline_regimes":       inlineRegimes,
			"clients":              fmt.Sprintf("%d closed-loop clients, one keep-alive connection each", w.clients),
		},
	}
}

// serveStats are the per-request observations the per-layer metrics need.
type serveStats struct {
	mu            sync.Mutex
	byOutcome     map[string][]float64 // latency in ms by X-Pchls-Cache
	missSchedRuns int64
	rejected      int
	repeats       int
	requests      int
}

func (w *serveMix) run(b budget, tr *tracer) *phase {
	var t tally
	var eng engineTally
	st := serveStats{byOutcome: map[string][]float64{}}
	var probeNS atomic.Int64
	mark := startPhase()
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tp := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tp.CloseIdleConnections()
			hc := &http.Client{Transport: tp, Timeout: time.Minute}
			for b.more(int(w.pos.Load())) {
				i := int(w.pos.Add(1) - 1)
				if i >= len(w.reqs) {
					return
				}
				req := &w.reqs[i]
				mark.cal.hold()
				op := tr.nextOp()
				span := tr.start("op", 0, op)
				start := time.Now()
				s := tr.start("server.request", span, op)
				resp, outcome, runs, err := w.send(hc, req)
				tr.end(s)
				if err == nil {
					err = w.check(req, resp)
				}
				elapsed := time.Since(start)
				tr.end(span)
				t.record(elapsed, err)
				st.note(req, resp, outcome, runs, elapsed)
				if tr != nil {
					ps := time.Now()
					w.probe(tr, op, req, outcome, &eng)
					probeNS.Add(int64(time.Since(ps)))
				}
				mark.cal.release()
			}
		}()
	}
	wg.Wait()
	// Each client spent its share of the probe time outside ops.
	ph := mark.finish(&t, time.Duration(probeNS.Load()/int64(w.clients)))
	eng.into(ph.layer)
	st.into(ph.layer)
	ph.notes = append(st.notes(), fmt.Sprintf("stream: %d of %d requests sent, %.0f requests/s wall-clock",
		ph.attempted, len(w.reqs), float64(ph.attempted)/ph.elapsed.Seconds()))
	if ph.attempted >= len(w.reqs) {
		ph.notes = append(ph.notes, "WARNING: the request stream ran out before the deadline and the phase ended early; raise serveRate")
	}
	return ph
}

// send posts one request and reads the whole response.
func (w *serveMix) send(hc *http.Client, req *serveReq) (*response, string, int64, error) {
	hreq, err := http.NewRequest(http.MethodPost, w.base+req.path, bytes.NewReader(req.body))
	if err != nil {
		return nil, "", 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(hreq)
	if err != nil {
		return nil, "", 0, fmt.Errorf("%s: %v", req.path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", 0, fmt.Errorf("%s: reading body: %v", req.path, err)
	}
	runs, _ := strconv.ParseInt(resp.Header.Get("X-Pchls-Scheduler-Runs"), 10, 64)
	return &response{resp.StatusCode, body}, resp.Header.Get("X-Pchls-Cache"), runs, nil
}

// check validates a response against its keys' references.
func (w *serveMix) check(req *serveReq, resp *response) error {
	if req.path != "/v1/batch" {
		return w.checkKey(req.keys[0], resp)
	}
	if resp.status != http.StatusOK {
		return fmt.Errorf("/v1/batch: status %d: %.200s", resp.status, resp.body)
	}
	var out struct {
		Results []struct {
			Status int    `json:"status"`
			Body   []byte `json:"body"`
		} `json:"results"`
	}
	if err := json.Unmarshal(resp.body, &out); err != nil {
		return fmt.Errorf("/v1/batch: %v", err)
	}
	if len(out.Results) != len(req.keys) {
		return fmt.Errorf("/v1/batch: %d results for %d items", len(out.Results), len(req.keys))
	}
	for i, k := range req.keys {
		if err := w.checkKey(k, &response{out.Results[i].Status, out.Results[i].Body}); err != nil {
			return fmt.Errorf("/v1/batch item %d: %v", i, err)
		}
	}
	return nil
}

// checkKey compares one key's response with its reference, or with the
// first response seen for the key when it has none. Only 200 and 422
// (infeasible) are answers.
func (w *serveMix) checkKey(id int32, resp *response) error {
	k := w.keys[id]
	if resp.status != http.StatusOK && resp.status != http.StatusUnprocessableEntity {
		return fmt.Errorf("%s %s: status %d: %.200s", k.kind, k.label(), resp.status, resp.body)
	}
	want := k.ref
	if want == nil {
		if w.firsts[id].CompareAndSwap(nil, resp) {
			return nil
		}
		want = w.firsts[id].Load()
	}
	if resp.status != want.status || !bytes.Equal(resp.body, want.body) {
		return fmt.Errorf("%s %s: response differs from its reference (status %d, want %d)", k.kind, k.label(), resp.status, want.status)
	}
	return nil
}

// graph returns the key's graph, parsing an inline key's request JSON.
func (k *serveKey) graph() (*cdfg.Graph, error) {
	if k.g != nil {
		return k.g, nil
	}
	return cdfg.ParseJSON(k.graphJSON)
}

func (k *serveKey) label() string {
	if k.name != "" {
		return fmt.Sprintf("%s T=%d P=%g", k.name, k.cons.Deadline, k.cons.PowerMax)
	}
	return fmt.Sprintf("inline graph of %d nodes T=%d P=%g", k.nodes, k.cons.Deadline, k.cons.PowerMax)
}

func (s *serveStats) note(req *serveReq, resp *response, outcome string, runs int64, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requests++
	if req.repeat {
		s.repeats++
	}
	if resp != nil && (resp.status == http.StatusTooManyRequests || resp.status == http.StatusServiceUnavailable) {
		s.rejected++
	}
	if outcome == "" {
		outcome = "uncached"
	}
	s.byOutcome[outcome] = append(s.byOutcome[outcome], float64(d)/float64(time.Millisecond))
	if outcome == cache.Miss.String() {
		s.missSchedRuns += runs
	}
}

// latencyShare is the outcome's share of the summed request latency.
func (s *serveStats) latencyShare(outcome string) float64 {
	total := 0.0
	for _, xs := range s.byOutcome {
		total += sum(xs)
	}
	return ratio(sum(s.byOutcome[outcome]), total)
}

// notes describes the latency split by cache outcome for the report.
func (s *serveStats) notes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	outcomes := make([]string, 0, len(s.byOutcome))
	for o := range s.byOutcome {
		outcomes = append(outcomes, o)
	}
	sort.Strings(outcomes)
	var out []string
	for _, o := range outcomes {
		xs := s.byOutcome[o]
		out = append(out, fmt.Sprintf("latency of %s requests: n=%d (%.3f of requests) sum=%.0f ms (%.3f of summed latency) p50=%.3f ms",
			o, len(xs), ratio(float64(len(xs)), float64(s.requests)), sum(xs), s.latencyShare(o), percentile(xs, 50)))
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func (s *serveStats) into(layer map[string]metric) {
	s.mu.Lock()
	defer s.mu.Unlock()
	hits := s.byOutcome[cache.Hit.String()]
	misses := s.byOutcome[cache.Miss.String()]
	coalesced := s.byOutcome[cache.Coalesced.String()]
	cached := float64(len(hits) + len(misses) + len(coalesced))
	layer["server.hit_latency_share"] = metric{s.latencyShare(cache.Hit.String()), "ratio"}
	layer["server.miss_latency_share"] = metric{s.latencyShare(cache.Miss.String()), "ratio"}
	layer["server.hit_us_p50"] = metric{percentile(hits, 50) * 1000, "us"}
	layer["server.miss_ms_p50"] = metric{percentile(misses, 50), "ms"}
	layer["server.scheduler_runs_per_miss"] = metric{ratio(float64(s.missSchedRuns), float64(len(misses))), "count"}
	layer["server.rejected"] = metric{float64(s.rejected), "count"}
	layer["cache.hit_ratio"] = metric{ratio(float64(len(hits)), cached), "ratio"}
	layer["cache.coalesced_ratio"] = metric{ratio(float64(len(coalesced)), cached), "ratio"}
	layer["serve.repeat_share"] = metric{ratio(float64(s.repeats), float64(s.requests)), "ratio"}
}

// probe times the layer calls behind one request: the graph's resolution
// (built-in lookup or JSON parse) and cache key for every request; on a
// miss, the scheduler passes and, for keys with a reference, a direct
// synthesis and the design-level calls; the front for a pareto request.
func (w *serveMix) probe(tr *tracer, op int, req *serveReq, outcome string, eng *engineTally) {
	k := w.keys[req.keys[0]]
	miss := outcome == cache.Miss.String()
	g, err := k.graph()
	if err != nil {
		return
	}
	in := probeInput{name: k.name, g: g, lib: w.lib, cons: k.cons, singlePass: k.singlePass, graphJSON: k.graphJSON}
	ps := probeSet{byName: true, parse: k.graphJSON != nil, key: k.kind == "synthesize", sched: miss && k.kind == "synthesize"}
	if miss && k.design != nil {
		in.design = k.design
		ps.bind, ps.check, ps.designJSON, ps.lifetime = true, true, true, true
	}
	probe(tr, op, in, ps)
	if !miss {
		return
	}
	root := tr.start("probe", 0, op)
	defer tr.end(root)
	switch {
	case k.kind == "pareto":
		s := tr.start("cache.key", root, op)
		_ = cache.ParetoKey(k.g, w.lib, k.deadlines, k.powers, "kibam", 0, 1<<20, true)
		tr.end(s)
		s = tr.start("explore.pareto", root, op)
		_, _ = paretoReference(k.g, w.lib, k.deadlines, k.powers)
		tr.end(s)
	case k.ref != nil && k.singlePass:
		s := tr.start("core.synthesize", root, op)
		d, err := core.Synthesize(k.g, w.lib, k.cons, core.Config{Workers: 1})
		tr.end(s)
		if err == nil {
			eng.add(d)
		}
	}
}

func (w *serveMix) sample() probeInput {
	k := w.keys[w.hot]
	return probeInput{g: k.g, lib: w.lib, cons: k.cons, singlePass: true, graphJSON: k.graphJSON}
}

// qor reports the built-in synthesize keys: their summed reference area
// and feasible share. Served bodies must equal those references.
func (w *serveMix) qor() (float64, float64) {
	area, feasible, n := 0.0, 0, 0
	for _, k := range w.keys[:w.hot] {
		if k.kind != "synthesize" {
			continue
		}
		n++
		if k.design != nil {
			area += k.design.Area()
			feasible++
		}
	}
	return area, float64(feasible) / float64(n)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every value marshalled here is built by this file
	}
	return b
}
