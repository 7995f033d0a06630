package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark's own code:
// around a driven request (a root: Parent 0), around one in-memory
// transport leg of that request, or around one direct call into a
// layer's public function. Spans of one request share Request.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	Detail  string `json:"detail,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced laps pay only a nil check. Roots are
// opened by the single client goroutine; children may be opened from
// the coordinator's leg goroutines, hence the mutex.
type tracer struct {
	mu      sync.Mutex
	origin  time.Time
	spans   []span
	root    int // open root span, parent of every child begun meanwhile
	request int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// beginRoot opens the span of the next driven request.
func (t *tracer) beginRoot(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.request++
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Request: t.request, Name: name, StartNs: t.now()})
	t.root = len(t.spans)
	return t.root
}

// begin opens a child of the open root.
func (t *tracer) begin(name, detail string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: t.root, Request: t.request,
		Name: name, Detail: detail, StartNs: t.now(),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].EndNs = t.now()
	t.mu.Unlock()
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	count   int
	totalNs int64
	// selfNs is the roots' time not covered by any of their children
	// (overlapping children — parallel shard legs — count once).
	selfNs int64
}

// summarize groups spans by name and computes every root's self time.
func (t *tracer) summarize() map[string]*spanStat {
	out := map[string]*spanStat{}
	if t == nil {
		return out
	}
	children := map[int][]span{}
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		st.count++
		st.totalNs += s.EndNs - s.StartNs
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		if s.Parent != 0 {
			continue
		}
		out[s.Name].selfNs += (s.EndNs - s.StartNs) - coveredNs(children[s.ID])
	}
	return out
}

// coveredNs is the length of the union of the spans' intervals.
func coveredNs(spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNs < spans[j].StartNs })
	var covered, end int64
	for i, s := range spans {
		if i == 0 || s.StartNs > end {
			covered += s.EndNs - s.StartNs
			end = s.EndNs
		} else if s.EndNs > end {
			covered += s.EndNs - end
			end = s.EndNs
		}
	}
	return covered
}

func (t *tracer) writeFile(path, workload string) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
