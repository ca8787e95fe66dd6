package main

import (
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Op     int    `json:"op"`     // op id; 0 for set-up spans
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

// tracer holds spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs share the traced code path at the cost of one
// nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// nextOp allocates an op id (0 when tracing is off).
func (t *tracer) nextOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// start opens a span and returns its id (0 when tracing is off).
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.End = now
	return time.Duration(sp.End - sp.Start)
}

// layerSummary aggregates the spans of one name.
type layerSummary struct {
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	TotalMS  float64 `json:"total_ms"`
	SelfMS   float64 `json:"self_ms"`
	MedianUS float64 `json:"median_us"`
}

// summary aggregates spans by name. A span's self time is its duration
// minus its children's; children of one span never overlap, since each is
// a call made in sequence by the goroutine that opened the parent.
func (t *tracer) summary() []layerSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*layerSummary{}
	durs := map[string][]float64{}
	for _, s := range t.spans {
		l := byName[s.Name]
		if l == nil {
			l = &layerSummary{Name: s.Name}
			byName[s.Name] = l
		}
		d := s.End - s.Start
		l.Count++
		l.TotalMS += float64(d) / 1e6
		l.SelfMS += float64(d-child[s.ID]) / 1e6
		durs[s.Name] = append(durs[s.Name], float64(d)/1e3)
	}
	out := make([]layerSummary, 0, len(byName))
	for name, l := range byName {
		l.MedianUS = median(durs[name])
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// medianUS returns the median duration in microseconds of the spans named
// name, and how many there were.
func (t *tracer) medianUS(name string) (float64, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, float64(s.End-s.Start)/1e3)
		}
	}
	if len(ds) == 0 {
		return 0, 0
	}
	return median(ds), len(ds)
}

// write stores every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return writeFile(path, b)
}
