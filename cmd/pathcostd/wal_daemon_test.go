package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	pathcost "repro"
	"repro/internal/traffic"
	"repro/internal/trajgen"
)

// daemonHandle is one booted run() loop plus the plumbing to stop it.
type daemonHandle struct {
	base   string
	sys    *pathcost.System
	hup    chan os.Signal
	cancel context.CancelFunc
	done   chan error
}

// bootDaemon starts run() on port 0 and waits for ready.
func bootDaemon(t *testing.T, opt options) *daemonHandle {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	h := &daemonHandle{
		hup:    make(chan os.Signal, 1),
		cancel: cancel,
		done:   make(chan error, 1),
	}
	type ready struct {
		addr net.Addr
		sys  *pathcost.System
	}
	readyc := make(chan ready, 1)
	logger := log.New(io.Discard, "", 0)
	go func() {
		h.done <- run(ctx, opt, logger, h.hup, func(a net.Addr, s *pathcost.System) {
			readyc <- ready{addr: a, sys: s}
		})
	}()
	select {
	case rd := <-readyc:
		h.base = "http://" + rd.addr.String()
		h.sys = rd.sys
	case err := <-h.done:
		cancel()
		t.Fatalf("run exited before ready: %v", err)
	case <-time.After(60 * time.Second):
		cancel()
		t.Fatal("daemon never became ready")
	}
	return h
}

func (h *daemonHandle) stop(t *testing.T) {
	t.Helper()
	h.cancel()
	select {
	case err := <-h.done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// ingestBodies renders n disjoint raw-GPS ingest request bodies over g.
func ingestBodies(t *testing.T, g *pathcost.Graph, n int, seed int64) [][]byte {
	t.Helper()
	type pointJSON struct {
		Lat float64 `json:"lat"`
		Lon float64 `json:"lon"`
		T   float64 `json:"t"`
	}
	type trajJSON struct {
		ID     int64       `json:"id"`
		Points []pointJSON `json:"points"`
	}
	var out [][]byte
	for i := 0; i < n; i++ {
		res := trajgen.New(g, traffic.NewModel(traffic.Config{}), trajgen.Config{
			Seed: seed + int64(i), NumTrips: 10, EmitGPS: true,
		}).Generate()
		var req struct {
			Trajectories []trajJSON `json:"trajectories"`
		}
		for _, tr := range res.Raw {
			tj := trajJSON{ID: tr.ID + int64(i)*100000}
			for _, rec := range tr.Records {
				tj.Points = append(tj.Points, pointJSON{Lat: rec.Pt.Lat, Lon: rec.Pt.Lon, T: rec.Time})
			}
			req.Trajectories = append(req.Trajectories, tj)
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, body)
	}
	return out
}

// postIngest streams one body through /v1/ingest and returns staged.
func postIngest(t *testing.T, base string, body []byte) int {
	t.Helper()
	resp, err := http.Post(base+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ing struct {
		Staged int `json:"staged"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	return ing.Staged
}

// statsWAL polls the /v1/stats wal block.
func statsWAL(t *testing.T, base string) (lastSeq, checkpoint uint64, ok bool) {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		WAL *struct {
			LastSeq    uint64 `json:"last_seq"`
			Checkpoint uint64 `json:"checkpoint"`
		} `json:"wal"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.WAL == nil {
		return 0, 0, false
	}
	return st.WAL.LastSeq, st.WAL.Checkpoint, true
}

// TestRunWALRecoveryAndCheckpoint drives the durability loop end to
// end at the daemon level: boot with -wal and -wal-checkpoint, ack an
// ingest batch, stop WITHOUT publishing (the "crash" — acked deltas
// exist only in the log), reboot on the same directory, and verify the
// backlog was replayed, a SIGHUP publish folds it in, the checkpoint
// file appears, and the WAL reports the truncation frontier.
func TestRunWALRecoveryAndCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two full daemons")
	}
	dir := t.TempDir()
	opt := options{
		addr:          "127.0.0.1:0",
		preset:        "test",
		trips:         2000,
		seed:          31,
		beta:          20,
		alpha:         30,
		useSynopsis:   true,
		drain:         time.Second,
		enableIngest:  true,
		ingestWorkers: 2,
		walDir:        filepath.Join(dir, "wal"),
		walCheckpoint: filepath.Join(dir, "model.ckpt"),
	}

	h := bootDaemon(t, opt)
	bodies := ingestBodies(t, h.sys.Graph, 1, 43)
	if staged := postIngest(t, h.base, bodies[0]); staged == 0 {
		t.Fatal("nothing staged")
	}
	lastSeq, ckpt, ok := statsWAL(t, h.base)
	if !ok || lastSeq == 0 {
		t.Fatalf("wal stats after ingest: last_seq %d, present %v", lastSeq, ok)
	}
	if ckpt != 0 {
		t.Fatalf("wal checkpoint %d advanced without a publish", ckpt)
	}
	h.stop(t) // acked deltas now live only in the WAL

	h = bootDaemon(t, opt)
	defer h.stop(t)
	if n := h.sys.StagedCount(); n == 0 {
		t.Fatal("reboot replayed nothing: staged count 0")
	}
	h.hup <- syscall.SIGHUP
	// epoch.seq moves when the new epoch becomes visible, BEFORE the
	// checkpoint is written and the WAL truncated; epoch.publishes is
	// bumped only after both returned, so it is the field to wait on
	// before looking at their effects.
	deadline := time.Now().Add(30 * time.Second)
	var seq, publishes uint64
	for time.Now().Before(deadline) {
		if seq, publishes = statsEpochBlock(t, h.base); publishes >= 1 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if publishes < 1 || seq < 2 {
		t.Fatalf("the replayed publish never completed: epoch %d, publishes %d", seq, publishes)
	}
	if _, err := os.Stat(opt.walCheckpoint); err != nil {
		t.Fatalf("checkpoint file missing after publish: %v", err)
	}
	lastSeq, ckpt, ok = statsWAL(t, h.base)
	if !ok || ckpt == 0 || ckpt < lastSeq {
		t.Fatalf("wal did not truncate through the publish: last_seq %d, checkpoint %d", lastSeq, ckpt)
	}
}

// TestRunSIGHUPRacesIngest hammers the daemon with concurrent ingest
// streams and publish signals: every acked trajectory must eventually
// be folded exactly once (staged_total conserved, staged_pending
// drained) with queries serving throughout. Run under -race this also
// checks the locking between the epoch loop and the WAL append path.
func TestRunSIGHUPRacesIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a full daemon")
	}
	dir := t.TempDir()
	opt := options{
		addr:          "127.0.0.1:0",
		preset:        "test",
		trips:         2000,
		seed:          31,
		beta:          20,
		alpha:         30,
		useSynopsis:   true,
		drain:         time.Second,
		enableIngest:  true,
		ingestWorkers: 2,
		walDir:        filepath.Join(dir, "wal"),
		walCheckpoint: filepath.Join(dir, "model.ckpt"),
	}
	h := bootDaemon(t, opt)
	defer h.stop(t)

	const streams = 3
	bodies := ingestBodies(t, h.sys.Graph, streams, 91)
	var wg sync.WaitGroup
	acked := make([]int, streams)
	stopHup := make(chan struct{})
	hupDone := make(chan struct{})
	go func() { // publish signals racing the ingest streams
		defer close(hupDone)
		for {
			select {
			case <-stopHup:
				return
			case <-time.After(5 * time.Millisecond):
				select {
				case h.hup <- syscall.SIGHUP:
				default:
				}
			}
		}
	}()
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			acked[i] = postIngest(t, h.base, bodies[i])
		}(i)
	}
	wg.Wait()
	close(stopHup)
	<-hupDone

	total := 0
	for _, n := range acked {
		total += n
	}
	if total == 0 {
		t.Fatal("no trajectories acked")
	}

	// Drain: publish until nothing is pending.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if h.sys.StagedCount() == 0 {
			break
		}
		select {
		case h.hup <- syscall.SIGHUP:
		default:
		}
		time.Sleep(20 * time.Millisecond)
	}
	est := h.sys.EpochStats()
	if est.StagedPending != 0 {
		t.Fatalf("staged_pending %d after drain", est.StagedPending)
	}
	if est.StagedTotal != uint64(total) {
		t.Fatalf("staged_total %d, acked %d: trajectories lost or duplicated under racing publishes",
			est.StagedTotal, total)
	}
	hr, err := http.Get(h.base + "/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz during churn: %v / %v", err, hr)
	}
	hr.Body.Close()
}
