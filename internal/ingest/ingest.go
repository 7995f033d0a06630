package ingest

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/gps"
	"repro/internal/graph"
	"repro/internal/mapmatch"
)

// Sink receives validated map-matched trajectories. The system's
// *pathcost.System satisfies it via StageTrajectories: staged
// observations accumulate until the next epoch publish. accepted and
// rejected partition the batch; a Sink must never panic on valid
// input.
type Sink interface {
	StageTrajectories(batch []*gps.Matched) (accepted, rejected int)
}

// Config tunes a Pipeline.
type Config struct {
	// Workers bounds the map-matching pool; ≤ 1 means sequential.
	Workers int
	// Match tunes the HMM matcher the Pipeline builds once and shares.
	Match mapmatch.Config
}

// BatchStats summarizes one IngestRaw call.
type BatchStats struct {
	// Received counts the raw trajectories in the batch; Records the
	// GPS fixes across them.
	Received int
	Records  int64
	// Matched / MatchFailed partition Received by map-matching
	// outcome.
	Matched     int
	MatchFailed int
	// Staged / Rejected partition Matched by the Sink's validation
	// (e.g. a matched path failing adjacency against the serving
	// graph, which cannot happen when matcher and sink share one
	// graph, but the contract allows independent sinks).
	Staged   int
	Rejected int
}

// Pipeline is a reusable streaming ingester: each IngestRaw call
// map-matches one batch on the worker pool and stages the survivors
// into the Sink. A Pipeline is safe for concurrent use — every batch
// and every worker shares the one Matcher built with the Pipeline (its
// projection, segments and grid index are read-only, its search state
// pooled), and the Sink is required to be concurrency-safe, as
// System.StageTrajectories is.
type Pipeline struct {
	g       *graph.Graph
	sink    Sink
	cfg     Config
	matcher *mapmatch.Matcher

	// Cumulative counters across every IngestRaw call, for the
	// server's /v1/stats ingest block. Atomics: batches may ingest
	// concurrently.
	received    atomic.Int64
	records     atomic.Int64
	matched     atomic.Int64
	matchFailed atomic.Int64
	staged      atomic.Int64
	rejected    atomic.Int64
	batches     atomic.Int64
}

// New builds a Pipeline staging into sink.
func New(g *graph.Graph, sink Sink, cfg Config) (*Pipeline, error) {
	if g == nil {
		return nil, fmt.Errorf("ingest: nil graph")
	}
	if sink == nil {
		return nil, fmt.Errorf("ingest: nil sink")
	}
	return &Pipeline{g: g, sink: sink, cfg: cfg, matcher: mapmatch.New(g, cfg.Match)}, nil
}

// IngestRaw map-matches one batch of raw traces and stages the
// survivors. Unmatchable or invalid traces are counted and dropped,
// never failing the batch — real fleets always contain broken traces.
// An empty batch is a no-op.
func (p *Pipeline) IngestRaw(raw []*gps.Trajectory) BatchStats {
	st := BatchStats{Received: len(raw)}
	if len(raw) == 0 {
		return st
	}
	results := make([]*gps.Matched, len(raw))
	workers := p.cfg.Workers
	if workers > len(raw) {
		workers = len(raw)
	}
	if workers <= 1 {
		for i := range raw {
			results[i] = p.matchOne(raw[i])
		}
	} else {
		// Workers pull indexes from a shared counter, not contiguous
		// chunks, so a pocket of hard traces cannot idle the pool.
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(raw) {
						return
					}
					results[i] = p.matchOne(raw[i])
				}
			}()
		}
		wg.Wait()
	}
	matched := make([]*gps.Matched, 0, len(raw))
	for i, tr := range raw {
		if tr != nil {
			st.Records += int64(len(tr.Records))
		}
		if results[i] == nil {
			st.MatchFailed++
			continue
		}
		matched = append(matched, results[i])
		st.Matched++
	}
	if len(matched) > 0 {
		st.Staged, st.Rejected = p.sink.StageTrajectories(matched)
	}
	p.batches.Add(1)
	p.received.Add(int64(st.Received))
	p.records.Add(st.Records)
	p.matched.Add(int64(st.Matched))
	p.matchFailed.Add(int64(st.MatchFailed))
	p.staged.Add(int64(st.Staged))
	p.rejected.Add(int64(st.Rejected))
	return st
}

// matchOne matches one trace, returning nil when it is nil or malformed
// (the matcher validates it first), cannot be aligned with the network,
// or the alignment fails validation.
func (p *Pipeline) matchOne(tr *gps.Trajectory) *gps.Matched {
	if tr == nil {
		return nil
	}
	timed, err := p.matcher.MatchToTimed(tr)
	if err != nil {
		return nil
	}
	if err := timed.Validate(p.g); err != nil {
		return nil
	}
	return timed
}

// Stats reports the cumulative counters across every batch ingested
// through this Pipeline.
type Stats struct {
	Batches     int64
	Received    int64
	Records     int64
	Matched     int64
	MatchFailed int64
	Staged      int64
	Rejected    int64
}

// Stats snapshots the pipeline's cumulative counters.
func (p *Pipeline) Stats() Stats {
	return Stats{
		Batches:     p.batches.Load(),
		Received:    p.received.Load(),
		Records:     p.records.Load(),
		Matched:     p.matched.Load(),
		MatchFailed: p.matchFailed.Load(),
		Staged:      p.staged.Load(),
		Rejected:    p.rejected.Load(),
	}
}
