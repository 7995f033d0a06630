package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/gps"
	"repro/internal/graph"
)

func testBatch(id int64, n int, emissions bool) []*gps.Matched {
	out := make([]*gps.Matched, n)
	for i := range out {
		m := &gps.Matched{
			ID:        id + int64(i),
			Depart:    28800.5 + float64(i),
			Path:      graph.Path{graph.EdgeID(i), graph.EdgeID(i + 1), graph.EdgeID(i + 2)},
			EdgeCosts: []float64{1.5, 2.25, 3.125},
		}
		if emissions {
			m.Emissions = []float64{0.1, 0.2, 0.3}
		}
		out[i] = m
	}
	return out
}

func mustOpen(t *testing.T, dir string, opt Options) *Log {
	t.Helper()
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	batches := [][]*gps.Matched{
		testBatch(1, 3, false),
		testBatch(100, 1, true),
		testBatch(200, 5, false),
	}
	var seqs []uint64
	for _, b := range batches {
		seq, err := l.Append(b)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		seqs = append(seqs, seq)
	}
	if !reflect.DeepEqual(seqs, []uint64{1, 2, 3}) {
		t.Fatalf("seqs = %v, want 1..3", seqs)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := mustOpen(t, dir, Options{})
	pending := r.Pending()
	if len(pending) != len(batches) {
		t.Fatalf("replayed %d records, want %d", len(pending), len(batches))
	}
	for i, rec := range pending {
		if rec.Seq != seqs[i] {
			t.Errorf("record %d seq = %d, want %d", i, rec.Seq, seqs[i])
		}
		if !reflect.DeepEqual(rec.Batch, batches[i]) {
			t.Errorf("record %d batch differs after replay:\n got %+v\nwant %+v", i, rec.Batch[0], batches[i][0])
		}
	}
	if again := r.Pending(); again != nil {
		t.Errorf("second Pending returned %d records, want none", len(again))
	}
}

func TestTruncateThroughSkipsCoveredRecords(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if _, err := l.Append(testBatch(int64(i*10), 2, false)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.TruncateThrough(3); err != nil {
		t.Fatalf("TruncateThrough: %v", err)
	}
	l.Close()

	r := mustOpen(t, dir, Options{})
	pending := r.Pending()
	if len(pending) != 2 {
		t.Fatalf("replayed %d records after checkpoint 3, want 2", len(pending))
	}
	if pending[0].Seq != 4 || pending[1].Seq != 5 {
		t.Fatalf("replayed seqs %d, %d; want 4, 5", pending[0].Seq, pending[1].Seq)
	}
	// New appends continue the sequence, never reusing a number.
	seq, err := r.Append(testBatch(999, 1, false))
	if err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	if seq != 6 {
		t.Fatalf("post-recovery seq = %d, want 6", seq)
	}
}

func TestTruncateDeletesCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every append rotates.
	l := mustOpen(t, dir, Options{SegmentBytes: 1})
	for i := 0; i < 4; i++ {
		if _, err := l.Append(testBatch(int64(i), 1, false)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.TruncateThrough(3); err != nil {
		t.Fatalf("TruncateThrough: %v", err)
	}
	l.Close()
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Segments 1..3 are covered and deleted; segment 4 survives.
	if len(names) != 1 {
		t.Fatalf("%d segments on disk after truncation, want 1: %v", len(names), names)
	}
	r := mustOpen(t, dir, Options{})
	if p := r.Pending(); len(p) != 1 || p[0].Seq != 4 {
		t.Fatalf("pending after truncation = %+v, want one record with seq 4", p)
	}
}

// TestTornTailDiscarded simulates a crash mid-append: the last frame
// is cut short. Replay must keep every intact record and drop the torn
// one without error.
func TestTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if _, err := l.Append(testBatch(int64(i), 2, false)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	l.Close()
	names, _ := segmentNames(dir)
	path := filepath.Join(dir, names[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{})
	if r.Stats().Discarded != 1 {
		t.Errorf("Discarded = %d, want 1", r.Stats().Discarded)
	}
	pending := r.Pending()
	if len(pending) != 2 {
		t.Fatalf("replayed %d records from torn segment, want 2", len(pending))
	}
	// The torn record never became durable, so its sequence number is
	// free again; the next append claims it in a fresh segment.
	seq, err := r.Append(testBatch(50, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 {
		t.Errorf("seq after torn tail = %d, want 3", seq)
	}
}

// TestCorruptMiddleRecordStopsSegmentScan flips a payload byte in the
// middle record: it and everything after it in that segment drop, and
// nothing panics.
func TestCorruptMiddleRecordStopsSegmentScan(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	var offsets []int64
	for i := 0; i < 3; i++ {
		st := l.Stats()
		offsets = append(offsets, st.Bytes)
		if _, err := l.Append(testBatch(int64(i), 2, false)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	names, _ := segmentNames(dir)
	path := filepath.Join(dir, names[0])
	data, _ := os.ReadFile(path)
	data[offsets[1]+frameHeader+2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{})
	pending := r.Pending()
	if len(pending) != 1 || pending[0].Seq != 1 {
		t.Fatalf("pending after mid-segment corruption = %d records, want just record 1", len(pending))
	}
	if r.Stats().Discarded == 0 {
		t.Error("corruption not counted in Discarded")
	}
}

func TestCorruptCheckpointTreatedAsAbsent(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	l.Append(testBatch(1, 1, false))
	l.TruncateThrough(1)
	l.Close()
	if err := os.WriteFile(filepath.Join(dir, "checkpoint"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	// The segment was deleted by truncation, so replaying "everything"
	// is still nothing; the point is Open does not fail.
	if got := r.Stats().Checkpoint; got != 0 {
		t.Errorf("checkpoint after corrupt file = %d, want 0", got)
	}
}

func TestEmptyDirIsEmptyLog(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{})
	if p := l.Pending(); len(p) != 0 {
		t.Fatalf("fresh log has %d pending records", len(p))
	}
	st := l.Stats()
	if st.LastSeq != 0 || st.Segments != 0 {
		t.Fatalf("fresh log stats = %+v", st)
	}
}

// FuzzWALReplay pins the replayer's core promise: arbitrary bytes
// never panic it, and whatever it does return decodes to structurally
// consistent records.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("WAL1 not really a frame"))
	f.Add(encodeFrame(1, testBatch(1, 2, false)))
	f.Add(encodeFrame(7, testBatch(9, 1, true))[:20])
	long := bytes.Repeat(encodeFrame(3, testBatch(5, 3, false)), 3)
	f.Add(long)
	// A frame with a huge declared length.
	bad := make([]byte, frameHeader)
	binary.LittleEndian.PutUint32(bad[0:], frameMagic)
	binary.LittleEndian.PutUint32(bad[4:], 0xFFFFFFFF)
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, _ := DecodeSegment(data)
		for _, r := range recs {
			for _, m := range r.Batch {
				if m == nil {
					t.Fatal("decoded nil trajectory")
				}
				if len(m.EdgeCosts) != len(m.Path) {
					t.Fatalf("decoded %d costs for %d edges", len(m.EdgeCosts), len(m.Path))
				}
				if m.Emissions != nil && len(m.Emissions) != len(m.Path) {
					t.Fatalf("decoded %d emissions for %d edges", len(m.Emissions), len(m.Path))
				}
			}
		}
	})
}

// faults is what a test arms to make segment files misbehave: the next
// failWrites writes tear (half the frame reaches the file and the write
// reports an error), and while stuck is set no file can be cut back.
type faults struct {
	failWrites int
	stuck      bool
}

type flakySegment struct {
	*os.File
	faults *faults
}

func (f *flakySegment) Write(p []byte) (int, error) {
	if f.faults.failWrites > 0 {
		f.faults.failWrites--
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errors.New("injected write error")
	}
	return f.File.Write(p)
}

func (f *flakySegment) Truncate(size int64) error {
	if f.faults.stuck {
		return errors.New("injected truncate error")
	}
	return f.File.Truncate(size)
}

// A write error inside Append must not strand the batches acknowledged
// after it: whether the torn frame is cut out of the segment, or the
// segment cannot be cut back and is closed (or, holding nothing, is
// removed to free its name), every acked batch replays, in order, under
// contiguous sequence numbers.
func TestWALAppendErrorKeepsLaterRecords(t *testing.T) {
	for _, c := range []struct {
		name         string
		firstOfSeg   bool // the failing frame is the first of a fresh segment
		stuck        bool // the segment cannot be truncated
		wantSegments int
	}{
		{"torn frame cut out mid-segment", false, false, 1},
		{"torn first frame cut out", true, false, 2},
		{"segment closed behind its torn tail", false, true, 2},
		{"empty segment removed to free its name", true, true, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			l := mustOpen(t, dir, Options{})
			var plan faults
			l.openSegment = func(path string) (segmentFile, error) {
				f, err := createSegment(path)
				if err != nil {
					return nil, err
				}
				return &flakySegment{File: f.(*os.File), faults: &plan}, nil
			}
			var acked [][]*gps.Matched
			var seqs []uint64
			ack := func(b []*gps.Matched) {
				t.Helper()
				seq, err := l.Append(b)
				if err != nil {
					t.Fatalf("Append: %v", err)
				}
				acked, seqs = append(acked, b), append(seqs, seq)
			}
			ack(testBatch(1, 2, false))
			ack(testBatch(10, 3, true))
			if c.firstOfSeg {
				l.opt.SegmentBytes = 1 // the next append rotates first
			}
			plan = faults{failWrites: 1, stuck: c.stuck}
			if _, err := l.Append(testBatch(500, 4, false)); err == nil {
				t.Fatal("Append over a failing write reported no error")
			}
			plan.stuck = false
			l.opt.SegmentBytes = 4 << 20
			ack(testBatch(600, 2, true))
			ack(testBatch(700, 1, false))
			if st := l.Stats(); st.LastSeq != uint64(len(acked)) {
				t.Fatalf("LastSeq = %d after %d acked appends: the failed one consumed a sequence number", st.LastSeq, len(acked))
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			r := mustOpen(t, dir, Options{})
			defer r.Close()
			st := r.Stats()
			pending := r.Pending()
			if len(pending) != len(acked) {
				t.Fatalf("replayed %d of %d acknowledged batches (discarded %d)", len(pending), len(acked), st.Discarded)
			}
			for i, rec := range pending {
				if rec.Seq != seqs[i] || rec.Seq != uint64(i+1) {
					t.Fatalf("record %d replayed as seq %d, acked as %d", i, rec.Seq, seqs[i])
				}
				if !reflect.DeepEqual(rec.Batch, acked[i]) {
					t.Fatalf("record %d replayed with different contents", i)
				}
			}
			if st.Segments != c.wantSegments {
				t.Fatalf("%d segments on disk, want %d", st.Segments, c.wantSegments)
			}
		})
	}
}

// TestWALCheckpointDurableBeforeTruncate: no segment is deleted on the
// strength of a checkpoint marker that is not on stable storage. The
// directory sync that makes the marker's rename durable runs while
// every segment still exists; when it fails, TruncateThrough returns
// the error, keeps every segment and leaves Checkpoint() unchanged.
// With Options.Sync, a segment whose name cannot be made durable takes
// no frame.
func TestWALCheckpointDurableBeforeTruncate(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentBytes: 1}) // every append rotates
	for i := 0; i < 4; i++ {
		if _, err := l.Append(testBatch(int64(i), 1, false)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	before, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	diskFull := errors.New("injected: directory fsync failed")
	var synced []string
	l.syncDir = func(d string) error {
		names, err := segmentNames(d)
		if err != nil || !reflect.DeepEqual(names, before) {
			t.Errorf("directory synced after segments changed: %v (%v), want %v", names, err, before)
		}
		synced = append(synced, d)
		return diskFull
	}
	if err := l.TruncateThrough(3); !errors.Is(err, diskFull) {
		t.Fatalf("TruncateThrough with a failing directory sync = %v, want %v", err, diskFull)
	}
	if len(synced) == 0 {
		t.Fatal("TruncateThrough never synced the directory")
	}
	if got := l.Stats().Checkpoint; got != 0 {
		t.Fatalf("Checkpoint() = %d after a failed truncation, want 0", got)
	}
	if after, _ := segmentNames(dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("segments after a failed truncation = %v, want all of %v", after, before)
	}

	synced = nil
	l.syncDir = func(d string) error {
		synced = append(synced, d)
		return syncDirectory(d)
	}
	if err := l.TruncateThrough(3); err != nil {
		t.Fatalf("TruncateThrough: %v", err)
	}
	if len(synced) == 0 || synced[0] != dir || l.Stats().Checkpoint != 3 {
		t.Fatalf("synced %v, checkpoint %d; want %s synced and checkpoint 3", synced, l.Stats().Checkpoint, dir)
	}
	if after, _ := segmentNames(dir); len(after) != 1 {
		t.Fatalf("%d segments after truncating through 3, want 1: %v", len(after), after)
	}
	l.Close()

	sdir := t.TempDir()
	s := mustOpen(t, sdir, Options{Sync: true})
	s.syncDir = func(string) error { return diskFull }
	if _, err := s.Append(testBatch(1, 1, false)); !errors.Is(err, diskFull) {
		t.Fatalf("Sync append into a segment whose name cannot be synced = %v, want %v", err, diskFull)
	}
	if names, _ := segmentNames(sdir); len(names) != 0 {
		t.Fatalf("a segment whose name was never durable was left behind: %v", names)
	}
	s.syncDir = syncDirectory
	if seq, err := s.Append(testBatch(1, 1, false)); err != nil || seq != 1 {
		t.Fatalf("Append after the sync recovered = %d, %v; want 1, nil", seq, err)
	}
	s.Close()
}
