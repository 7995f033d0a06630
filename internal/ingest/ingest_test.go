package ingest

import (
	"sync"
	"testing"

	"repro/internal/gps"
	"repro/internal/netgen"
	"repro/internal/traffic"
	"repro/internal/trajgen"
)

// captureSink records everything staged, with a switch to reject all.
type captureSink struct {
	mu        sync.Mutex
	staged    []*gps.Matched
	rejectAll bool
}

func (s *captureSink) StageTrajectories(batch []*gps.Matched) (int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rejectAll {
		return 0, len(batch)
	}
	s.staged = append(s.staged, batch...)
	return len(batch), 0
}

func TestIngestStagesMatchedTrajectories(t *testing.T) {
	g := netgen.Generate(netgen.PresetConfig(netgen.PresetTest))
	res := trajgen.New(g, traffic.NewModel(traffic.Config{}), trajgen.Config{
		Seed: 7, NumTrips: 40, EmitGPS: true,
	}).Generate()
	if len(res.Raw) == 0 {
		t.Fatal("generator emitted no raw traces")
	}

	sink := &captureSink{}
	p, err := New(g, sink, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := p.IngestRaw(res.Raw)
	if st.Received != len(res.Raw) {
		t.Fatalf("Received = %d, want %d", st.Received, len(res.Raw))
	}
	if st.Matched == 0 || st.Staged != st.Matched {
		t.Fatalf("Matched = %d, Staged = %d: want every match staged", st.Matched, st.Staged)
	}
	if st.Matched+st.MatchFailed != st.Received {
		t.Fatalf("Matched %d + MatchFailed %d != Received %d", st.Matched, st.MatchFailed, st.Received)
	}
	if len(sink.staged) != st.Staged {
		t.Fatalf("sink holds %d, stats say %d", len(sink.staged), st.Staged)
	}
	for _, m := range sink.staged {
		if err := m.Validate(g); err != nil {
			t.Fatalf("staged trajectory invalid: %v", err)
		}
	}
}

// The worker pool must stage the same set in the same order as a
// sequential run — parallelism only changes wall-clock time.
func TestIngestParallelMatchesSequential(t *testing.T) {
	g := netgen.Generate(netgen.PresetConfig(netgen.PresetTest))
	res := trajgen.New(g, traffic.NewModel(traffic.Config{}), trajgen.Config{
		Seed: 11, NumTrips: 60, EmitGPS: true,
	}).Generate()

	seq := &captureSink{}
	pseq, _ := New(g, seq, Config{Workers: 1})
	stSeq := pseq.IngestRaw(res.Raw)

	par := &captureSink{}
	ppar, _ := New(g, par, Config{Workers: 4})
	stPar := ppar.IngestRaw(res.Raw)

	if stSeq != stPar {
		t.Fatalf("stats diverge: seq %+v, par %+v", stSeq, stPar)
	}
	if len(seq.staged) != len(par.staged) {
		t.Fatalf("staged counts diverge: %d vs %d", len(seq.staged), len(par.staged))
	}
	for i := range seq.staged {
		if seq.staged[i].ID != par.staged[i].ID {
			t.Fatalf("order diverges at %d: %d vs %d", i, seq.staged[i].ID, par.staged[i].ID)
		}
		if seq.staged[i].Path.Key() != par.staged[i].Path.Key() {
			t.Fatalf("path diverges for trajectory %d", seq.staged[i].ID)
		}
	}
}

// A Pipeline builds one Matcher and every request and worker shares it:
// batches ingested concurrently through one Pipeline must each stage
// what a sequential run stages. Run with -race.
func TestIngestConcurrentBatchesShareOneMatcher(t *testing.T) {
	g := netgen.Generate(netgen.PresetConfig(netgen.PresetTest))
	res := trajgen.New(g, traffic.NewModel(traffic.Config{}), trajgen.Config{
		Seed: 13, NumTrips: 40, EmitGPS: true,
	}).Generate()

	seq := &captureSink{}
	pseq, _ := New(g, seq, Config{Workers: 1})
	want := pseq.IngestRaw(res.Raw)

	sink := &captureSink{}
	p, _ := New(g, sink, Config{Workers: 3})
	const requests = 4
	var wg sync.WaitGroup
	for r := 0; r < requests; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := p.IngestRaw(res.Raw); got != want {
				t.Errorf("concurrent batch: %+v, sequential %+v", got, want)
			}
		}()
	}
	wg.Wait()
	if len(sink.staged) != requests*len(seq.staged) {
		t.Fatalf("staged %d trajectories over %d requests, want %d each", len(sink.staged), requests, len(seq.staged))
	}
	paths := make(map[int64]string, len(seq.staged))
	for _, m := range seq.staged {
		paths[m.ID] = m.Path.Key()
	}
	for _, m := range sink.staged {
		if m.Path.Key() != paths[m.ID] {
			t.Fatalf("trajectory %d matched to a different path under concurrency", m.ID)
		}
	}
}

func TestIngestCountsBrokenTraces(t *testing.T) {
	g := netgen.Generate(netgen.PresetConfig(netgen.PresetTest))
	res := trajgen.New(g, traffic.NewModel(traffic.Config{}), trajgen.Config{
		Seed: 3, NumTrips: 10, EmitGPS: true,
	}).Generate()

	// Poison the batch: a nil entry, an empty trace, and a
	// time-disordered trace. None may fail the batch or reach the sink.
	bad := []*gps.Trajectory{
		nil,
		{ID: 9001},
		{ID: 9002, Records: []gps.Record{
			{Time: 100}, {Time: 50},
		}},
	}
	batch := append(append([]*gps.Trajectory{}, res.Raw...), bad...)

	sink := &captureSink{}
	p, _ := New(g, sink, Config{Workers: 2})
	st := p.IngestRaw(batch)
	if st.MatchFailed < len(bad) {
		t.Fatalf("MatchFailed = %d, want ≥ %d", st.MatchFailed, len(bad))
	}
	for _, m := range sink.staged {
		if m.ID >= 9000 {
			t.Fatalf("broken trace %d reached the sink", m.ID)
		}
	}
}

func TestIngestSinkRejectionCounted(t *testing.T) {
	g := netgen.Generate(netgen.PresetConfig(netgen.PresetTest))
	res := trajgen.New(g, traffic.NewModel(traffic.Config{}), trajgen.Config{
		Seed: 5, NumTrips: 10, EmitGPS: true,
	}).Generate()

	sink := &captureSink{rejectAll: true}
	p, _ := New(g, sink, Config{})
	st := p.IngestRaw(res.Raw)
	if st.Staged != 0 || st.Rejected != st.Matched {
		t.Fatalf("rejectAll sink: Staged = %d, Rejected = %d, Matched = %d",
			st.Staged, st.Rejected, st.Matched)
	}

	cum := p.Stats()
	if cum.Batches != 1 || cum.Rejected != int64(st.Rejected) {
		t.Fatalf("cumulative stats %+v disagree with batch %+v", cum, st)
	}
}

func TestIngestEmptyBatch(t *testing.T) {
	g := netgen.Generate(netgen.PresetConfig(netgen.PresetTest))
	p, _ := New(g, &captureSink{}, Config{})
	st := p.IngestRaw(nil)
	if st != (BatchStats{}) {
		t.Fatalf("empty batch produced stats %+v", st)
	}
	if p.Stats().Batches != 0 {
		t.Fatalf("empty batch counted as a batch")
	}
}
