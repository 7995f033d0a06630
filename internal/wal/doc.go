// Package wal is the ingest write-ahead log: an append-only,
// checksummed, segment-rotated record of every staged trajectory
// batch, written before the batch is acknowledged. A crash between
// staging and the next epoch publish then loses nothing — boot replays
// the unpublished records and the recovered daemon serves the same
// epochs it would have served without the crash.
//
// Format. A log is a directory of segment files named
// wal-<firstseq>.seg plus one checkpoint file. Each segment is a
// sequence of frames:
//
//	magic   uint32  "WAL1" (0x57414C31), little-endian
//	length  uint32  payload bytes
//	crc     uint32  CRC-32C (Castagnoli) of the payload
//	payload length bytes
//
// The payload is one Record: a sequence number followed by a binary
// encoding of its matched-trajectory batch. Torn or corrupt tails —
// the expected shape of a crash mid-append — fail the CRC or run out
// of bytes and are cleanly discarded: replay stops at the last intact
// frame and never panics, whatever the bytes (see FuzzWALReplay).
//
// The checkpoint file holds the highest sequence number whose records
// are durably reflected in a persisted model. TruncateThrough writes
// it atomically (temp + fsync + rename), fsyncs the directory, and
// only then deletes every segment whose records are all covered;
// replay skips records at or below it.
//
// Durability, by Options.Sync. Off (the default): an acknowledged
// batch survives a process crash, but power loss can take the log's
// unsynced tail. On: it survives power loss too (Append fsyncs the
// frame, and the directory after creating a segment). Either way a
// segment is deleted only once a marker covering it is on stable
// storage, after the caller made the model folding it durable.
// Without checkpointing, records are retained and replayed against the
// base model — exact-mode epoch builds are batching-invariant, so
// replay-then-publish reproduces the uninterrupted model bytes either
// way.
package wal
