package pathcost

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/gps"
	"repro/internal/mapmatch"
)

// Trajectory is a raw GPS trace (a time-ordered list of fixes) as it
// arrives from vehicles, before map matching.
type Trajectory = gps.Trajectory

// MatcherConfig tunes the HMM map matcher; the zero value uses the
// Newson–Krumm-style defaults. Set Workers > 1 to shard batch
// ingestion across a goroutine pool.
type MatcherConfig = mapmatch.Config

// MatchStats summarizes a map-matching run.
type MatchStats struct {
	Matched int // trajectories successfully matched
	Failed  int // trajectories with no consistent road alignment
	Records int64
}

// MatchTrajectories runs the full ingestion pipeline of Section 2.1:
// every raw GPS trace is aligned with a road-network path by the HMM
// map matcher and converted into the (path, departure, per-edge cost)
// observation the trainer consumes. Unmatchable traces are skipped and
// counted rather than failing the batch — real fleets always contain
// broken traces.
//
// With cfg.Workers > 1 the batch is sharded across that many
// goroutines, each with its own Matcher (the matchers share nothing
// mutable, so workers never contend). Trajectories are matched
// independently, and results are merged back in input order, so the
// output is identical to a sequential run — parallelism only changes
// wall-clock time.
func MatchTrajectories(g *Graph, raw []*Trajectory, cfg MatcherConfig) (*Collection, MatchStats, error) {
	if len(raw) == 0 {
		return nil, MatchStats{}, fmt.Errorf("pathcost: no trajectories to match")
	}
	results := make([]*Matched, len(raw))
	workers := cfg.Workers
	if workers > len(raw) {
		workers = len(raw)
	}
	if workers <= 1 {
		m := mapmatch.New(g, cfg)
		for i := range raw {
			results[i] = matchOne(m, g, raw[i])
		}
	} else {
		// Workers pull trajectory indexes from a shared counter (not
		// contiguous chunks), so one pocket of hard-to-match traces
		// cannot idle the rest of the pool. Each worker builds its own
		// Matcher: the O(E) index duplication is deliberate isolation —
		// it keeps workers share-nothing (future matcher-side caching
		// cannot introduce contention) and is amortized over a batch
		// that costs orders of magnitude more than index construction.
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m := mapmatch.New(g, cfg)
				for {
					i := int(next.Add(1) - 1)
					if i >= len(raw) {
						return
					}
					results[i] = matchOne(m, g, raw[i])
				}
			}()
		}
		wg.Wait()
	}
	var matched []*Matched
	var st MatchStats
	for i, tr := range raw {
		st.Records += int64(len(tr.Records))
		if results[i] == nil {
			st.Failed++
			continue
		}
		matched = append(matched, results[i])
		st.Matched++
	}
	if len(matched) == 0 {
		return nil, st, fmt.Errorf("pathcost: no trajectory could be matched")
	}
	return gps.NewCollection(matched, st.Records), st, nil
}

// matchOne matches a single trajectory, returning nil when it cannot
// be aligned with the network.
func matchOne(m *mapmatch.Matcher, g *Graph, tr *Trajectory) *Matched {
	timed, err := m.MatchToTimed(tr)
	if err != nil {
		return nil
	}
	if err := timed.Validate(g); err != nil {
		return nil
	}
	return timed
}

// SystemFromGPS builds a System directly from raw GPS traces: map
// matching followed by hybrid-graph training. This is the full
// paper pipeline for real-world data. mcfg.Workers and params.Workers
// control ingestion and training parallelism independently.
func SystemFromGPS(g *Graph, raw []*Trajectory, mcfg MatcherConfig, params Params) (*System, MatchStats, error) {
	data, st, err := MatchTrajectories(g, raw, mcfg)
	if err != nil {
		return nil, st, err
	}
	sys, err := NewSystem(g, data, params)
	return sys, st, err
}
