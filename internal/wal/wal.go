package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/gps"
)

const (
	frameMagic   = 0x57414C31 // "WAL1"
	frameHeader  = 12         // magic + length + crc
	checkpointV1 = "ckpt-v1"

	// maxPayload bounds one frame's payload so a corrupt length field
	// cannot force a huge allocation during replay.
	maxPayload = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one appended batch with its log sequence number.
type Record struct {
	Seq   uint64
	Batch []*gps.Matched
}

// Options tunes a Log.
type Options struct {
	// SegmentBytes rotates to a new segment file once the current one
	// exceeds this size (0 = 4 MiB).
	SegmentBytes int64
	// Sync fsyncs after every append. Off by default: the tier's
	// durability target is process crashes, which the OS page cache
	// survives; turn it on when the disk must survive power loss too.
	Sync bool
}

// Stats snapshots a log's state.
type Stats struct {
	// LastSeq is the highest sequence number ever appended (or
	// recovered); Checkpoint is the highest sequence covered by a
	// persisted model.
	LastSeq    uint64
	Checkpoint uint64
	// Segments and Bytes describe the on-disk footprint.
	Segments int
	Bytes    int64
	// Appends counts Append calls this process made; Truncations
	// counts TruncateThrough calls; Discarded counts torn or corrupt
	// frames dropped during Open's replay scan.
	Appends     uint64
	Truncations uint64
	Discarded   int
}

// segMeta is one closed or active segment's bookkeeping.
type segMeta struct {
	path        string
	first, last uint64
	bytes       int64
}

// segmentFile is what the log needs of its active segment: an *os.File
// outside tests, a fault injector inside them.
type segmentFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Close() error
}

// createSegment opens a segment file that must not exist yet.
func createSegment(path string) (segmentFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use; appends are serialized internally.
type Log struct {
	dir string
	opt Options

	mu          sync.Mutex
	f           segmentFile // active segment, nil until first Append
	openSegment func(path string) (segmentFile, error)
	syncDir     func(dir string) error // syncDirectory outside tests
	active      segMeta
	closed      []segMeta
	nextSeq     uint64
	checkpoint  uint64
	pending     []Record
	appends     uint64
	truncations uint64
	discarded   int
}

// Open opens (creating if needed) the log directory, scans every
// segment, and holds the records above the checkpoint for Pending.
// Corrupt or torn frames are discarded — scanning stops at the first
// bad frame of a segment, and any later segments are still scanned
// (their frames are independent). Open never fails on bad record
// bytes, only on I/O errors.
func Open(dir string, opt Options) (*Log, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = 4 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opt: opt, nextSeq: 1, openSegment: createSegment, syncDir: syncDirectory}

	ckpt, err := readCheckpoint(filepath.Join(dir, "checkpoint"))
	if err != nil {
		return nil, err
	}
	l.checkpoint = ckpt
	if ckpt >= l.nextSeq {
		l.nextSeq = ckpt + 1
	}

	names, err := segmentNames(dir)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		recs, discarded := DecodeSegment(data)
		l.discarded += discarded
		meta := segMeta{path: path, bytes: int64(len(data))}
		for _, r := range recs {
			if meta.first == 0 {
				meta.first = r.Seq
			}
			if r.Seq > meta.last {
				meta.last = r.Seq
			}
			if r.Seq >= l.nextSeq {
				l.nextSeq = r.Seq + 1
			}
			if r.Seq > ckpt {
				l.pending = append(l.pending, r)
			}
		}
		l.closed = append(l.closed, meta)
	}
	sort.Slice(l.pending, func(i, j int) bool { return l.pending[i].Seq < l.pending[j].Seq })
	return l, nil
}

// Pending returns the records recovered at Open whose sequence exceeds
// the checkpoint, in sequence order — the batches a crashed process
// staged but never persisted. The slice is owned by the caller.
func (l *Log) Pending() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.pending
	l.pending = nil
	return out
}

// Append writes one batch as a single frame and reports its sequence
// number. The frame is on disk (modulo OS cache; see Options.Sync)
// before Append returns, so callers may acknowledge the batch. A failed
// append consumes no sequence number and leaves nothing in the segment:
// see cutBackLocked.
func (l *Log) Append(batch []*gps.Matched) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil || l.active.bytes >= l.opt.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	seq := l.nextSeq
	frame := encodeFrame(seq, batch)
	if _, err := l.f.Write(frame); err != nil {
		l.cutBackLocked()
		return 0, fmt.Errorf("wal: appending record %d: %w", seq, err)
	}
	if l.opt.Sync {
		if err := l.f.Sync(); err != nil {
			l.cutBackLocked()
			return 0, fmt.Errorf("wal: syncing record %d: %w", seq, err)
		}
	}
	l.nextSeq = seq + 1
	l.appends++
	l.active.bytes += int64(len(frame))
	if l.active.first == 0 {
		l.active.first = seq
	}
	l.active.last = seq
	return seq, nil
}

// cutBackLocked removes what a failed append left after the segment's
// last good frame. Replay stops at a segment's first bad frame, so a
// torn frame left in place would hide every batch appended — and
// acknowledged — after it. If the segment cannot be cut back it is
// closed instead: the next Append rotates to a fresh one, and the torn
// bytes are the tail of their file, where replay expects them.
func (l *Log) cutBackLocked() {
	if err := l.f.Truncate(l.active.bytes); err == nil {
		if _, err = l.f.Seek(l.active.bytes, io.SeekStart); err == nil {
			return
		}
	}
	_ = l.f.Close() // the segment is abandoned whatever Close says
	l.f = nil
	if l.active.first != 0 {
		l.closed = append(l.closed, l.active)
		return
	}
	// No good frame in it, and it holds the name the next segment will
	// be created under (the sequence number did not advance). If it
	// cannot be removed either, that creation fails and appends keep
	// being refused, not lost.
	_ = os.Remove(l.active.path)
}

// rotateLocked closes the active segment and opens a fresh one named
// by the next sequence number. Also used for the first append — a new
// process never appends to an old segment, so a torn tail left by a
// crash can never be followed by live frames.
func (l *Log) rotateLocked() error {
	if l.f != nil {
		if err := l.f.Close(); err != nil {
			return err
		}
		l.closed = append(l.closed, l.active)
		l.f = nil
	}
	path := filepath.Join(l.dir, fmt.Sprintf("wal-%016x.seg", l.nextSeq))
	f, err := l.openSegment(path)
	if err != nil {
		return fmt.Errorf("wal: opening segment: %w", err)
	}
	if l.opt.Sync {
		// A synced frame is only as durable as its segment's name.
		if err := l.syncDir(l.dir); err != nil {
			_ = f.Close()
			_ = os.Remove(path)
			return fmt.Errorf("wal: syncing new segment: %w", err)
		}
	}
	l.f = f
	l.active = segMeta{path: path}
	return nil
}

// TruncateThrough records that every sequence number up to and
// including seq is durably reflected in a persisted model: the
// checkpoint file is rewritten atomically and durably, and only then
// are closed segments whose records are all covered deleted. Call it
// only after the model checkpoint itself is safely on disk.
func (l *Log) TruncateThrough(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq <= l.checkpoint {
		return nil
	}
	if err := writeCheckpoint(filepath.Join(l.dir, "checkpoint"), seq); err != nil {
		return err
	}
	if err := l.syncDir(l.dir); err != nil {
		return fmt.Errorf("wal: syncing checkpoint %d: %w", seq, err)
	}
	l.checkpoint = seq
	l.truncations++
	kept := l.closed[:0]
	for _, m := range l.closed {
		if m.last != 0 && m.last <= seq {
			if err := os.Remove(m.path); err != nil && !os.IsNotExist(err) {
				return err
			}
			continue
		}
		kept = append(kept, m)
	}
	l.closed = kept
	return nil
}

// Stats snapshots the log's counters and footprint.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		LastSeq:     l.nextSeq - 1,
		Checkpoint:  l.checkpoint,
		Appends:     l.appends,
		Truncations: l.truncations,
		Discarded:   l.discarded,
	}
	for _, m := range l.closed {
		st.Segments++
		st.Bytes += m.bytes
	}
	if l.f != nil {
		st.Segments++
		st.Bytes += l.active.bytes
	}
	return st
}

// Close closes the active segment. The log must not be used after.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// segmentNames lists the directory's segment files in name order,
// which is first-sequence order by construction.
func segmentNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if n := e.Name(); strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".seg") && !e.IsDir() {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

func readCheckpoint(path string) (uint64, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(data))
	if len(fields) != 2 || fields[0] != checkpointV1 {
		// A torn checkpoint write lost at most a truncation marker;
		// replaying extra records is safe (see the package comment), so
		// treat it as absent rather than refusing to open.
		return 0, nil
	}
	seq, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0, nil
	}
	return seq, nil
}

// writeCheckpoint replaces the checkpoint file with one whose bytes are
// on disk before the rename; the rename is durable once the caller
// syncs the directory.
func writeCheckpoint(path string, seq uint64) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.WriteString(checkpointV1 + " " + strconv.FormatUint(seq, 10) + "\n")
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// syncDirectory fsyncs a directory, making the names created, renamed
// and removed in it durable.
func syncDirectory(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() // only read
	return d.Sync()
}

// encodeFrame builds the on-disk frame for one record.
func encodeFrame(seq uint64, batch []*gps.Matched) []byte {
	payload := encodePayload(seq, batch)
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:], frameMagic)
	binary.LittleEndian.PutUint32(frame[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[8:], crc32.Checksum(payload, castagnoli))
	copy(frame[frameHeader:], payload)
	return frame
}

// DecodeSegment scans one segment's bytes, returning every intact
// record and the number of frames discarded as torn or corrupt.
// Scanning stops at the first bad frame: bytes after it cannot be
// trusted to align. It never panics, whatever the input — the fuzz
// target FuzzWALReplay pins that.
func DecodeSegment(data []byte) (recs []Record, discarded int) {
	off := 0
	for off < len(data) {
		if len(data)-off < frameHeader {
			discarded++
			return recs, discarded
		}
		if binary.LittleEndian.Uint32(data[off:]) != frameMagic {
			discarded++
			return recs, discarded
		}
		n := int(binary.LittleEndian.Uint32(data[off+4:]))
		if n > maxPayload || len(data)-off-frameHeader < n {
			discarded++
			return recs, discarded
		}
		crc := binary.LittleEndian.Uint32(data[off+8:])
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, castagnoli) != crc {
			discarded++
			return recs, discarded
		}
		rec, ok := decodePayload(payload)
		if !ok {
			// An intact CRC over a malformed payload means a writer bug
			// or hand-edited file, not a torn tail; still never trust
			// what follows.
			discarded++
			return recs, discarded
		}
		recs = append(recs, rec)
		off += frameHeader + n
	}
	return recs, discarded
}
