package pathcost

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/wal"
)

// walBase builds the recovery scenario's raw material: a base system,
// the held-out trajectory stream, and a reference model trained by
// folding the whole stream into the base in one exact publish.
func walBase(t *testing.T) (sys *System, held []*Matched, reference []byte) {
	t.Helper()
	var refSys *System
	sys, held, _, _ = epochBase(t, 211, 1100, 800)
	// The reference is the base system plus the full stream, built
	// independently so no state leaks from the system under test.
	refSys, _, _, _ = epochBase(t, 211, 1100, 800)
	if _, err := applyDeltas(refSys, held); err != nil {
		t.Fatal(err)
	}
	return sys, held, modelBytes(t, refSys)
}

// TestWALCrashRecoveryMatchesUninterruptedRun is the kill-and-restart
// differential test: a daemon that staged (and partly published)
// WAL-backed batches, then died without checkpointing, must recover —
// base model + full replay + one publish — to the exact SaveModel
// bytes of an uninterrupted run.
func TestWALCrashRecoveryMatchesUninterruptedRun(t *testing.T) {
	sys, held, reference := walBase(t)
	dir := t.TempDir()

	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rb, rt := sys.AttachWAL(l); rb != 0 || rt != 0 {
		t.Fatalf("fresh WAL replayed %d batches / %d trajectories", rb, rt)
	}

	// Pre-crash life: two batches staged and published, two more staged
	// but never published. No checkpointer is set, so the publish must
	// retain every record.
	cut := len(held) / 4
	batches := [][]*Matched{
		held[:cut], held[cut : 2*cut], held[2*cut : 3*cut], held[3*cut:],
	}
	for i, b := range batches[:2] {
		if acc, rej := sys.StageTrajectories(b); acc != len(b) || rej != 0 {
			t.Fatalf("batch %d staged %d/%d, rejected %d", i, acc, len(b), rej)
		}
	}
	if _, err := sys.PublishEpoch(); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[2:] {
		if acc, _ := sys.StageTrajectories(b); acc != len(b) {
			t.Fatalf("staged %d of %d", acc, len(b))
		}
	}
	// Crash: the process dies here. The in-memory system (with its
	// published epoch 2) is gone; only the WAL directory survives.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh process rebuilds the base model the same way the
	// dead one did, replays the WAL, and publishes once.
	recovered, _, _, _ := epochBase(t, 211, 1100, 800)
	rl, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rb, rt := recovered.AttachWAL(rl)
	if rb != 4 {
		t.Fatalf("recovery replayed %d batches, want all 4 (nothing was checkpointed)", rb)
	}
	if rt != len(held) {
		t.Fatalf("recovery replayed %d trajectories, want %d", rt, len(held))
	}
	if _, err := recovered.PublishEpoch(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(modelBytes(t, recovered), reference) {
		t.Fatal("recovered model bytes differ from the uninterrupted run")
	}

	// The uninterrupted run itself: the original system publishes its
	// remaining backlog. All three histories converge on one model.
	if _, err := sys.PublishEpoch(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(modelBytes(t, sys), reference) {
		t.Fatal("uninterrupted run's model bytes differ from the single-publish reference")
	}
}

// TestWALCrashRecoveryDiscardsTornTail: the crash tears the last
// record mid-write. Recovery must serve the intact prefix — equal to a
// run that never received the torn batch — and never fail the loader.
func TestWALCrashRecoveryDiscardsTornTail(t *testing.T) {
	sys, held, _ := walBase(t)
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys.AttachWAL(l)
	cut := len(held) / 2
	sys.StageTrajectories(held[:cut])
	sys.StageTrajectories(held[cut:])
	l.Close()

	// Tear the tail: the second record loses its last bytes.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	seg := segs[len(segs)-1]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-11], 0o644); err != nil {
		t.Fatal(err)
	}

	recovered, _, _, _ := epochBase(t, 211, 1100, 800)
	rl, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rb, rt := recovered.AttachWAL(rl)
	if rb != 1 || rt != cut {
		t.Fatalf("replayed %d batches / %d trajectories, want 1 / %d (torn tail dropped)", rb, rt, cut)
	}
	if _, err := recovered.PublishEpoch(); err != nil {
		t.Fatal(err)
	}

	oracle, _, _, _ := epochBase(t, 211, 1100, 800)
	if _, err := applyDeltas(oracle, held[:cut]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(modelBytes(t, recovered), modelBytes(t, oracle)) {
		t.Fatal("torn-tail recovery differs from a run that never saw the torn batch")
	}
}

// TestWALCheckpointGatesTruncation: without a checkpointer every
// record survives a publish; with one, the publish persists the model
// and truncates through the published sequence, and the checkpoint
// file holds exactly the served model's bytes.
func TestWALCheckpointGatesTruncation(t *testing.T) {
	sys, held, _ := walBase(t)
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys.AttachWAL(l)

	cut := len(held) / 2
	sys.StageTrajectories(held[:cut])
	if _, err := sys.PublishEpoch(); err != nil {
		t.Fatal(err)
	}
	if st, _, ok := sys.WALStats(); !ok || st.Checkpoint != 0 {
		t.Fatalf("publish without a checkpointer moved the WAL checkpoint to %d", st.Checkpoint)
	}

	ckptFile := filepath.Join(t.TempDir(), "model.ckpt")
	sys.SetWALCheckpoint(func() error {
		f, err := os.CreateTemp(filepath.Dir(ckptFile), "ckpt-*")
		if err != nil {
			return err
		}
		if err := sys.SaveModel(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		return os.Rename(f.Name(), ckptFile)
	})
	sys.StageTrajectories(held[cut:])
	if _, err := sys.PublishEpoch(); err != nil {
		t.Fatal(err)
	}
	st, _, _ := sys.WALStats()
	if st.Checkpoint != 2 {
		t.Fatalf("WAL checkpoint = %d after checkpointed publish, want 2", st.Checkpoint)
	}
	saved, err := os.ReadFile(ckptFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, modelBytes(t, sys)) {
		t.Fatal("checkpoint file differs from the served model")
	}
	l.Close()

	// Reopen: nothing pends — the log is empty up to the checkpoint.
	rl, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p := rl.Pending(); len(p) != 0 {
		t.Fatalf("%d records pending after checkpointed truncation, want 0", len(p))
	}
	rl.Close()
}

// TestWALFailedCheckpointRetainsRecords: a failing checkpoint hook
// must not truncate — losing records because persistence failed would
// be the exact crash-loss the WAL exists to prevent. The epoch is
// published all the same, and the failure is counted, not swallowed:
// a daemon whose checkpoint file became unwritable would otherwise
// grow its WAL silently. The same goes for a truncation that fails
// after a good checkpoint.
func TestWALFailedCheckpointRetainsRecords(t *testing.T) {
	sys, held, _ := walBase(t)
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys.AttachWAL(l)
	sys.SetWALCheckpoint(func() error { return errors.New("disk full (injected)") })
	for i := 1; i <= 2; i++ {
		seq := sys.EpochStats().Seq
		sys.StageTrajectories(held[(i-1)*50 : i*50])
		if _, err := sys.PublishEpoch(); err != nil {
			t.Fatalf("publish must survive a failed checkpoint: %v", err)
		}
		if got := sys.EpochStats().Seq; got != seq+1 {
			t.Fatalf("publish %d: epoch %d, want %d (a failed checkpoint must not unpublish)", i, got, seq+1)
		}
		st, errs, _ := sys.WALStats()
		if st.Checkpoint != 0 {
			t.Fatalf("failed checkpoint still truncated through %d", st.Checkpoint)
		}
		if errs.Checkpoint != uint64(i) || errs.Truncate != 0 || errs.Append != 0 {
			t.Fatalf("after %d failed checkpoints: error counters %+v", i, errs)
		}
	}
	l.Close()
	rl, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p := rl.Pending(); len(p) != 2 {
		t.Fatalf("%d records pending after failed checkpoints, want 2 (retained)", len(p))
	}
	rl.Close()

	// A good checkpoint whose truncation fails (the log's directory is
	// gone, so its checkpoint marker cannot be written): still
	// published, counted separately.
	dir2 := t.TempDir()
	l2, err := wal.Open(dir2, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	sys.AttachWAL(l2)
	sys.SetWALCheckpoint(func() error { return nil })
	sys.StageTrajectories(held[100:150])
	if err := os.RemoveAll(dir2); err != nil {
		t.Fatal(err)
	}
	seq := sys.EpochStats().Seq
	if _, err := sys.PublishEpoch(); err != nil {
		t.Fatalf("publish must survive a failed truncation: %v", err)
	}
	if got := sys.EpochStats().Seq; got != seq+1 {
		t.Fatalf("epoch %d after a failed truncation, want %d", got, seq+1)
	}
	if st, errs, _ := sys.WALStats(); errs.Truncate != 1 || errs.Checkpoint != 2 || st.Checkpoint != 0 {
		t.Fatalf("after a failed truncation: error counters %+v, WAL checkpoint %d", errs, st.Checkpoint)
	}
}

// TestStageTrajectoriesWALAppendFailureRejects: when the log cannot
// append, the batch must be rejected rather than acknowledged
// non-durably.
func TestStageTrajectoriesWALAppendFailureRejects(t *testing.T) {
	sys, held, _ := walBase(t)
	dir := t.TempDir()
	// SegmentBytes 1 forces a rotation — and thus a file create in the
	// deleted directory — on every append.
	l, err := wal.Open(dir, wal.Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys.AttachWAL(l)
	if acc, _ := sys.StageTrajectories(held[:10]); acc != 10 {
		t.Fatalf("staged %d of 10", acc)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	acc, rej := sys.StageTrajectories(held[10:20])
	if acc != 0 || rej != 10 {
		t.Fatalf("unappendable batch: accepted %d, rejected %d; want 0, 10", acc, rej)
	}
	if _, errs, _ := sys.WALStats(); errs.Append != 1 {
		t.Fatalf("Append errors = %d, want 1", errs.Append)
	}
	if got := sys.StagedCount(); got != 10 {
		t.Fatalf("staged count = %d after rejected batch, want 10", got)
	}
	l.Close()
}

// TestPublishFailureRestoresStagedOrder pins the restore-ordering
// contract: a batch drained by a failing publish is restored AHEAD of
// batches staged while the build ran, so a retry folds everything in
// original staging order — byte-identical to a run where the failure
// never happened.
func TestPublishFailureRestoresStagedOrder(t *testing.T) {
	sys, held, reference := walBase(t)
	cut := len(held) / 2
	first, second := held[:cut], held[cut:]

	sys.StageTrajectories(first)
	sys.buildProbe = func() error {
		// Runs inside the failing publish, after the drain: another
		// client stages the second batch exactly mid-build.
		sys.StageTrajectories(second)
		return errors.New("build failed (injected)")
	}
	if _, err := sys.PublishEpoch(); err == nil {
		t.Fatal("probed publish did not fail")
	}
	sys.buildProbe = nil

	if got := sys.StagedCount(); got != len(held) {
		t.Fatalf("staged count after failed publish = %d, want %d", got, len(held))
	}
	if _, err := sys.PublishEpoch(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(modelBytes(t, sys), reference) {
		t.Fatal("retry after failed publish is not byte-identical to the in-order reference: restored batch was not ahead of newer stagings")
	}
}

// TestPublishRacesStagingConservation runs a publisher loop against a
// staging stream under the race detector: every staged trajectory must
// be folded exactly once — neither lost nor double-published — and the
// final model must equal the single-publish reference.
func TestPublishRacesStagingConservation(t *testing.T) {
	sys, held, reference := walBase(t)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := sys.PublishEpoch(); err != nil {
				t.Errorf("racing publish: %v", err)
				return
			}
		}
	}()
	// One stager keeps the stream ordered; what races is where the
	// publish boundaries fall.
	for i := 0; i < len(held); i += 37 {
		end := i + 37
		if end > len(held) {
			end = len(held)
		}
		if acc, rej := sys.StageTrajectories(held[i:end]); acc != end-i || rej != 0 {
			t.Fatalf("staged %d/%d, rejected %d", acc, end-i, rej)
		}
	}
	close(stop)
	wg.Wait()
	if _, err := sys.PublishEpoch(); err != nil {
		t.Fatal(err)
	}

	st := sys.EpochStats()
	if st.StagedPending != 0 {
		t.Fatalf("%d trajectories still pending after final publish", st.StagedPending)
	}
	if st.StagedTotal != uint64(len(held)) {
		t.Fatalf("StagedTotal = %d, want %d", st.StagedTotal, len(held))
	}
	if !bytes.Equal(modelBytes(t, sys), reference) {
		t.Fatal("model after racing publishes differs from the single-publish reference")
	}
}
