package pathcost

import (
	"fmt"

	"repro/internal/gps"
	"repro/internal/ingest"
)

// Trajectory is a raw GPS trace (a time-ordered list of fixes) as it
// arrives from vehicles, before map matching.
type Trajectory = gps.Trajectory

// MatcherConfig tunes batch map matching: Workers bounds the matching
// pool (≤ 1 matches sequentially) and Match tunes the HMM matcher, whose
// zero value uses the Newson–Krumm-style defaults.
type MatcherConfig = ingest.Config

// MatchStats summarizes a map-matching run.
type MatchStats struct {
	Matched int // trajectories successfully matched
	Failed  int // trajectories with no consistent road alignment
	Records int64
}

// MatchTrajectories runs the full ingestion pipeline of Section 2.1:
// every raw GPS trace is aligned with a road-network path by the HMM
// map matcher and converted into the (path, departure, per-edge cost)
// observation the trainer consumes. Unmatchable traces (nil ones
// included) are skipped and counted rather than failing the batch —
// real fleets always contain broken traces.
//
// The batch runs through an ingest.Pipeline, the pool that also serves
// streaming ingestion: cfg.Workers goroutines share one Matcher, and
// matched trajectories keep their input order, so the output is
// identical to a sequential run — parallelism only changes wall-clock
// time.
func MatchTrajectories(g *Graph, raw []*Trajectory, cfg MatcherConfig) (*Collection, MatchStats, error) {
	if len(raw) == 0 {
		return nil, MatchStats{}, fmt.Errorf("pathcost: no trajectories to match")
	}
	var matched collectSink
	p, err := ingest.New(g, &matched, cfg)
	if err != nil {
		return nil, MatchStats{}, err
	}
	bst := p.IngestRaw(raw)
	st := MatchStats{Matched: bst.Matched, Failed: bst.MatchFailed, Records: bst.Records}
	if len(matched) == 0 {
		return nil, st, fmt.Errorf("pathcost: no trajectory could be matched")
	}
	return gps.NewCollection(matched, st.Records), st, nil
}

// collectSink is the ingest.Sink of MatchTrajectories: it keeps every
// matched trajectory, in order.
type collectSink []*Matched

func (s *collectSink) StageTrajectories(batch []*Matched) (accepted, rejected int) {
	*s = append(*s, batch...)
	return len(batch), 0
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
