// Package persist is sesd's durability subsystem: a segmented write-ahead
// log plus a snapshot store, giving the in-memory instance store, result
// cache and finished-job table crash recovery with bounded replay cost.
//
// Layout inside the data directory:
//
//	wal-0000000000000001.log   append-only record segments (seio WAL frames)
//	snap-0000000000000003.db   full-state snapshot covering segments 1..3
//
// Appends go to the highest-numbered segment and roll to a fresh segment once
// it exceeds Options.SegmentBytes. Compaction (driven by the server, which
// owns the state being snapshotted) seals the active segment, streams the
// complete current state into a temp file, fsyncs and atomically renames it
// to snap-<sealed>.db, then deletes the segments and snapshots it supersedes.
// Because the state is captured *after* the seal, a snapshot may already
// include the effect of records in the next segment; replay is therefore
// version-guarded and idempotent (the server skips records the snapshot has
// already absorbed), which is what makes the seal-then-dump race harmless.
//
// Recovery loads the newest readable snapshot, replays every later segment in
// order, and truncates a torn tail (a crash mid-append) off the final
// segment. Corruption anywhere *else* — or any record written by a newer
// build — aborts recovery with an error instead of silently dropping data.
package persist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/seio"
)

// Buffered I/O sized for record streams: segments replay sequentially and
// snapshots stream thousands of records, so 1 MiB buffers amortize syscalls.
func newBufReader(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, 1<<20) }
func newBufWriter(w io.Writer) *bufio.Writer { return bufio.NewWriterSize(w, 1<<20) }

// DefaultSegmentBytes is the segment roll threshold when Options leaves it 0.
const DefaultSegmentBytes = 64 << 20

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("persist: log is closed")

// Options configures a Log.
type Options struct {
	// Dir is the data directory; created if missing.
	Dir string
	// Fsync syncs the active segment after every append. Off, durability is
	// bounded by the OS page-cache flush interval (a process crash loses
	// nothing; a power loss may lose the last few seconds).
	Fsync bool
	// SegmentBytes is the roll threshold; default DefaultSegmentBytes.
	SegmentBytes int64
	// Metrics, when non-nil, receives latency/size observations from the
	// hot paths (append, fsync, snapshot writes). Nil (the default for CLI
	// tools and tests) skips all instrumentation including the clock reads.
	Metrics *Metrics
}

// Metrics is the set of instruments a Log feeds when Options.Metrics is set.
// Individual fields may be nil; the instruments are nil-receiver-safe.
type Metrics struct {
	// AppendSeconds observes the full Append critical section (frame write
	// plus fsync when enabled), successes only.
	AppendSeconds *metrics.Histogram
	// FsyncSeconds observes just the per-append fsync, successes only.
	// Unpopulated when Options.Fsync is off.
	FsyncSeconds *metrics.Histogram
	// SnapshotSeconds observes the duration of a successful Compact snapshot
	// write (state dump, fsync, and publish rename).
	SnapshotSeconds *metrics.Histogram
	// SnapshotBytes tracks the byte size of the newest published snapshot.
	SnapshotBytes *metrics.Gauge
}

// RecoveryStats describes what Open replayed.
type RecoveryStats struct {
	// SnapshotSeq is the highest segment the loaded snapshot covers (0 =
	// recovered from the log alone).
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// SnapshotRecords is the number of records applied from the snapshot.
	SnapshotRecords int `json:"snapshot_records"`
	// SkippedSnapshots counts newer snapshots that failed validation and
	// were passed over for an older one.
	SkippedSnapshots int `json:"skipped_snapshots,omitempty"`
	// Segments and Records count the WAL segments and records replayed on
	// top of the snapshot.
	Segments int `json:"segments"`
	Records  int `json:"records"`
	// TornBytes is the size of the incomplete tail record discarded from
	// the final segment (0 = the log ended cleanly).
	TornBytes int64 `json:"torn_bytes,omitempty"`
}

// Stats samples the log's counters for the server's metrics registry.
type Stats struct {
	ActiveSegment   uint64
	ActiveBytes     int64
	Segments        int
	Appends         int64
	AppendedBytes   int64
	Rotations       int64
	RotateErrors    int64
	Compactions     int64
	LastSnapshotSeq uint64
	SnapshotRecords int64
}

// Log is an open write-ahead log. Appends are serialized internally; Compact
// may run concurrently with appends (it holds the append lock only while
// sealing the active segment and while updating counters).
type Log struct {
	opts Options

	mu     sync.Mutex // guards f, seq, size, lastSnap, closed
	f      *os.File
	lock   *os.File // flock-held LOCK file; fences out concurrent processes
	seq    uint64   // active segment number
	size   int64    // bytes in the active segment
	closed bool

	lastSnap    uint64 // highest covered seq of the newest snapshot
	snapRecords int64  // records in that snapshot

	compactMu sync.Mutex // serializes Compact calls

	appends       atomic.Int64
	appendedBytes atomic.Int64
	rotations     atomic.Int64
	rotateErrors  atomic.Int64
	compactions   atomic.Int64
}

func segName(seq uint64) string  { return fmt.Sprintf("wal-%016d.log", seq) }
func snapName(seq uint64) string { return fmt.Sprintf("snap-%016d.db", seq) }

// parseSeq extracts the sequence number from a wal-/snap- file name, or
// reports false for files that are neither.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	var seq uint64
	for _, c := range name[len(prefix) : len(prefix)+16] {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq, true
}

// syncDir flushes directory metadata so a rename or create survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Open recovers the log in opts.Dir, feeding every durable record — snapshot
// contents first, then the segments the snapshot does not cover, in order —
// through apply, and returns the log opened for appending. A torn tail on
// the final segment is truncated away (recovery stops at the last complete
// record); corruption elsewhere, a snapshot/segment gap, or records from a
// newer build abort with an error.
func Open(opts Options, apply func(*seio.WALRecord) error) (*Log, RecoveryStats, error) {
	var stats RecoveryStats
	if opts.Dir == "" {
		return nil, stats, errors.New("persist: data directory not set")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, stats, fmt.Errorf("persist: create data dir: %w", err)
	}
	// Fence out concurrent processes before touching any state: two logs
	// appending to (and truncating, and compacting away) the same segments
	// would corrupt each other's acknowledged writes. The flock dies with
	// the process, so a SIGKILLed owner never wedges the directory.
	lock, err := acquireDirLock(opts.Dir)
	if err != nil {
		return nil, stats, err
	}
	ok := false
	defer func() {
		if !ok {
			lock.Close()
		}
	}()
	segs, snaps, err := scanDir(opts.Dir)
	if err != nil {
		return nil, stats, err
	}

	// Load the newest snapshot that validates end to end. A structural
	// pass (frames + CRCs, O(1) memory) runs before the apply pass, so a
	// snapshot that turns out to be corrupt halfway through cannot
	// half-apply — without buffering every record (each WALPut holds a
	// full instance document; a large store would multiply its own memory
	// footprint during boot).
	covered := uint64(0)
	for i := len(snaps) - 1; i >= 0; i-- {
		path := filepath.Join(opts.Dir, snapName(snaps[i]))
		n, err := streamSnapshot(path, nil)
		if err != nil {
			if errors.Is(err, seio.ErrWALTooNew) {
				return nil, stats, fmt.Errorf("persist: snapshot %s: %w", snapName(snaps[i]), err)
			}
			stats.SkippedSnapshots++
			continue
		}
		if _, err := streamSnapshot(path, apply); err != nil {
			return nil, stats, fmt.Errorf("persist: apply snapshot %s: %w", snapName(snaps[i]), err)
		}
		covered = snaps[i]
		stats.SnapshotSeq = covered
		stats.SnapshotRecords = n
		break
	}

	// Replay the segments after the snapshot. They must form a contiguous
	// run starting at covered+1 — a hole means lost mutations.
	var replay []uint64
	for _, s := range segs {
		if s > covered {
			replay = append(replay, s)
		}
	}
	// A skipped (unreadable) snapshot newer than everything recovered is
	// lost state unless the log itself still reaches past it. With no
	// segments to replay at all, booting would silently serve an older —
	// possibly empty — store as if the acknowledged data never existed.
	// (With segments present but gapped, the contiguity check below fires.)
	if stats.SkippedSnapshots > 0 && len(replay) == 0 && snaps[len(snaps)-1] > covered {
		return nil, stats, fmt.Errorf(
			"persist: snapshot %s is unreadable (corrupt?) and no wal segments remain to recover from",
			snapName(snaps[len(snaps)-1]))
	}
	for i, s := range replay {
		if want := covered + 1 + uint64(i); s != want {
			// Name the real culprit when the "gap" is the fallout of an
			// unreadable snapshot: its source segments were purged when it
			// was written, so log-only replay cannot reach them.
			if stats.SkippedSnapshots > 0 {
				return nil, stats, fmt.Errorf(
					"persist: snapshot %s is unreadable (corrupt?) and the segments it replaced are gone: want %s, found %s",
					snapName(snaps[len(snaps)-1]), segName(want), segName(s))
			}
			return nil, stats, fmt.Errorf("persist: wal segment gap: want %s, found %s", segName(want), segName(s))
		}
	}
	activeSeq := covered + 1
	var activeSize int64
	for i, s := range replay {
		last := i == len(replay)-1
		path := filepath.Join(opts.Dir, segName(s))
		n, size, torn, err := replaySegment(path, last, apply)
		stats.Records += n
		if err != nil {
			return nil, stats, err
		}
		if torn > 0 {
			stats.TornBytes = torn
			if err := os.Truncate(path, size); err != nil {
				return nil, stats, fmt.Errorf("persist: truncate torn tail of %s: %w", segName(s), err)
			}
		}
		activeSeq, activeSize = s, size
	}
	stats.Segments = len(replay)

	l := &Log{opts: opts, lock: lock, seq: activeSeq, size: activeSize, lastSnap: covered}
	l.snapRecords = int64(stats.SnapshotRecords)
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	f, err := os.OpenFile(filepath.Join(opts.Dir, segName(activeSeq)), flags, 0o644)
	if err != nil {
		return nil, stats, fmt.Errorf("persist: open active segment: %w", err)
	}
	l.f = f
	if len(replay) == 0 {
		// Fresh segment (empty dir, or first boot after a compaction whose
		// active segment was never created): make its existence durable.
		if err := syncDir(opts.Dir); err != nil {
			f.Close()
			return nil, stats, fmt.Errorf("persist: sync data dir: %w", err)
		}
	}
	ok = true
	return l, stats, nil
}

// acquireDirLock takes a non-blocking exclusive lock on <dir>/LOCK (flock on
// unix — see lock_unix.go; a documented no-op elsewhere). The returned file
// must stay open for the lock's lifetime; closing it (or the process dying)
// releases it.
func acquireDirLock(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: open lock file: %w", err)
	}
	if err := flockExclusive(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: data dir %s is locked by another process: %w", dir, err)
	}
	return f, nil
}

// scanDir lists segment and snapshot sequence numbers (sorted ascending) and
// removes stray temp files from an interrupted compaction.
func scanDir(dir string) (segs, snaps []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: scan data dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if s, ok := parseSeq(name, "wal-", ".log"); ok {
			segs = append(segs, s)
		} else if s, ok := parseSeq(name, "snap-", ".db"); ok {
			snaps = append(snaps, s)
		} else if filepath.Ext(name) == ".tmp" {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	return segs, snaps, nil
}

// streamSnapshot reads one snapshot file record by record, feeding each
// through apply (nil = validate only), and returns the record count.
// Snapshots are renamed into place only after an fsync, so any read error is
// corruption.
func streamSnapshot(path string, apply func(*seio.WALRecord) error) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r := newBufReader(f)
	n := 0
	for {
		rec, _, err := seio.ReadWALRecord(r)
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if apply != nil {
			if err := apply(rec); err != nil {
				return n, err
			}
		}
		n++
	}
}

// replaySegment streams one segment through apply. It returns the number of
// records applied, the offset of the last complete record, and — for the
// final segment only — the size of a torn tail to truncate. Corruption in a
// non-final segment is fatal: later segments prove the log continued past it,
// so the broken frame cannot be an interrupted append.
func replaySegment(path string, last bool, apply func(*seio.WALRecord) error) (n int, goodOff, torn int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("persist: open segment: %w", err)
	}
	defer f.Close()
	r := newBufReader(f)
	for {
		rec, read, err := seio.ReadWALRecord(r)
		switch {
		case errors.Is(err, io.EOF):
			return n, goodOff, 0, nil
		case errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, seio.ErrWALCorrupt):
			if !last {
				return n, goodOff, 0, fmt.Errorf("persist: segment %s corrupt at offset %d: %v", filepath.Base(path), goodOff, err)
			}
			// Torn tail or data corruption? A crash-torn tail can only be
			// the FINAL frame (the append path truncates failed writes
			// before any later frame lands), so if anything after the bad
			// frame still parses, this is bit rot in the middle of
			// acknowledged records — refuse to silently drop them. (A
			// corrupted length field desynchronizes the stream and can make
			// trailing frames unreadable; that residual case is
			// indistinguishable from a torn tail and is truncated.)
		scan:
			for {
				rec, _, rerr := seio.ReadWALRecord(r)
				switch {
				case (rec != nil && rerr == nil) || errors.Is(rerr, seio.ErrWALTooNew):
					// A CRC-valid frame — even one written by a newer build
					// — proves real data follows the bad frame: this is
					// corruption, and too-new records especially must never
					// be truncated (upgrading the binary is the fix).
					return n, goodOff, 0, fmt.Errorf("persist: segment %s corrupt at offset %d with valid records after it (data corruption, not a torn tail): %v",
						filepath.Base(path), goodOff, err)
				case errors.Is(rerr, io.EOF) || errors.Is(rerr, io.ErrUnexpectedEOF):
					break scan // ran out of data without finding a valid frame: a torn tail
				case errors.Is(rerr, seio.ErrWALCorrupt):
					continue // unreadable frame consumed (≥ a header); keep scanning
				default:
					// A real read error (e.g. EIO): the bytes past the bad
					// frame are UNVERIFIED, so truncating them as a "torn
					// tail" could destroy acknowledged records. Refuse.
					return n, goodOff, 0, fmt.Errorf("persist: segment %s: verifying tail after corrupt frame at offset %d: %w",
						filepath.Base(path), goodOff, rerr)
				}
			}
			fi, serr := f.Stat()
			if serr != nil {
				return n, goodOff, 0, fmt.Errorf("persist: stat torn segment: %w", serr)
			}
			return n, goodOff, fi.Size() - goodOff, nil
		case err != nil:
			return n, goodOff, 0, fmt.Errorf("persist: segment %s at offset %d: %w", filepath.Base(path), goodOff, err)
		}
		if err := apply(rec); err != nil {
			return n, goodOff, 0, fmt.Errorf("persist: apply %s record at offset %d of %s: %w", rec.Kind, goodOff, filepath.Base(path), err)
		}
		n++
		goodOff += read
	}
}

// Append frames rec onto the active segment, optionally fsyncing, and rolls
// to a fresh segment past the size threshold. Safe for concurrent use.
func (l *Log) Append(rec *seio.WALRecord) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	m := l.opts.Metrics
	var appendStart time.Time
	if m != nil {
		appendStart = time.Now()
	}
	n, err := seio.WriteWALRecord(l.f, rec)
	if err != nil {
		// A failed write may have left a partial frame. Cut it back off so
		// the segment ends at a record boundary — a later successful append
		// landing after a partial frame would corrupt the log mid-segment,
		// which recovery (rightly) refuses to repair. If even the truncate
		// fails the segment's integrity is unknowable; stop accepting
		// records rather than guess.
		if terr := l.f.Truncate(l.size); terr != nil {
			l.closed = true
			return errors.Join(err, terr)
		}
		return err
	}
	if l.opts.Fsync {
		var fsyncStart time.Time
		if m != nil {
			fsyncStart = time.Now()
		}
		if err := l.f.Sync(); err != nil {
			// The caller will refuse the mutation, so the already-written
			// frame must not stay in the log — a restart would silently
			// apply what the client was told failed. Roll it back; if even
			// that fails the segment's integrity is unknowable, stop.
			if terr := l.f.Truncate(l.size); terr != nil {
				l.closed = true
				return errors.Join(fmt.Errorf("persist: fsync wal: %w", err), terr)
			}
			return fmt.Errorf("persist: fsync wal: %w", err)
		}
		if m != nil {
			m.FsyncSeconds.ObserveSince(fsyncStart)
		}
	}
	if m != nil {
		m.AppendSeconds.ObserveSince(appendStart)
	}
	l.size += n
	l.appends.Add(1)
	l.appendedBytes.Add(n)
	if l.size >= l.opts.SegmentBytes {
		// The record is durably appended either way: a failed roll (say,
		// ENOSPC creating the next segment) must not fail the append — stay
		// on the oversized segment and retry the roll on the next one.
		if err := l.rotateLocked(); err != nil {
			l.rotateErrors.Add(1)
		}
	}
	return nil
}

// rotateLocked seals the active segment and opens the next one. Any failure
// leaves the current segment open and active, so the log stays appendable —
// the next segment is created and made durable BEFORE the swap, and a crash
// in between leaves at worst an empty trailing segment, which recovery reads
// as zero records. Callers hold l.mu.
func (l *Log) rotateLocked() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("persist: seal segment %d: %w", l.seq, err)
	}
	next := l.seq + 1
	nextPath := filepath.Join(l.opts.Dir, segName(next))
	// O_APPEND is load-bearing, not a convenience: the append-failure and
	// fsync-failure paths roll the segment back with Truncate, and only an
	// append-mode write is guaranteed to land at the new EOF afterwards —
	// a plain O_WRONLY fd would keep its old offset and punch a NUL hole
	// over the truncated range. (Open uses the same flags.)
	f, err := os.OpenFile(nextPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("persist: open segment %d: %w", next, err)
	}
	if err := syncDir(l.opts.Dir); err != nil {
		f.Close()
		os.Remove(nextPath)
		return fmt.Errorf("persist: sync data dir: %w", err)
	}
	old := l.f
	l.f, l.seq, l.size = f, next, 0
	l.rotations.Add(1)
	// The sealed segment was already synced; a close error cannot cost data.
	_ = old.Close()
	return nil
}

// Compact seals the active segment, streams the caller's full current state
// (via build's write callback) into a snapshot covering everything up to the
// seal, and deletes the superseded segments and snapshots. The caller dumps
// its state *after* the seal, so the snapshot may also absorb records from
// the new segment — the server's replay is version-guarded, making that
// overlap harmless. One compaction runs at a time; appends continue
// concurrently.
func (l *Log) Compact(build func(write func(*seio.WALRecord) error) error) error {
	l.compactMu.Lock()
	defer l.compactMu.Unlock()

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if err := l.rotateLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	covered := l.seq - 1
	l.mu.Unlock()

	m := l.opts.Metrics
	var snapStart time.Time
	if m != nil {
		snapStart = time.Now()
	}
	final := filepath.Join(l.opts.Dir, snapName(covered))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: create snapshot temp: %w", err)
	}
	bw := newBufWriter(f)
	var recs, snapBytes int64
	err = build(func(rec *seio.WALRecord) error {
		n, werr := seio.WriteWALRecord(bw, rec)
		if werr == nil {
			recs++
			snapBytes += n
		}
		return werr
	})
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: write snapshot %s: %w", snapName(covered), err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: publish snapshot: %w", err)
	}
	if err := syncDir(l.opts.Dir); err != nil {
		return fmt.Errorf("persist: sync data dir: %w", err)
	}
	if m != nil {
		m.SnapshotSeconds.ObserveSince(snapStart)
		m.SnapshotBytes.Set(snapBytes)
	}

	l.mu.Lock()
	l.lastSnap = covered
	l.snapRecords = recs
	l.mu.Unlock()
	l.compactions.Add(1)

	// Best-effort purge of everything the new snapshot supersedes; leftovers
	// are skipped at recovery and retried next compaction.
	segs, snaps, err := scanDir(l.opts.Dir)
	if err != nil {
		return nil
	}
	for _, s := range segs {
		if s <= covered {
			_ = os.Remove(filepath.Join(l.opts.Dir, segName(s)))
		}
	}
	for _, s := range snaps {
		if s < covered {
			_ = os.Remove(filepath.Join(l.opts.Dir, snapName(s)))
		}
	}
	return nil
}

// Stats samples the log counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	seq, size, lastSnap, snapRecs := l.seq, l.size, l.lastSnap, l.snapRecords
	l.mu.Unlock()
	return Stats{
		ActiveSegment:   seq,
		ActiveBytes:     size,
		Segments:        int(seq - lastSnap),
		Appends:         l.appends.Load(),
		AppendedBytes:   l.appendedBytes.Load(),
		Rotations:       l.rotations.Load(),
		RotateErrors:    l.rotateErrors.Load(),
		Compactions:     l.compactions.Load(),
		LastSnapshotSeq: lastSnap,
		SnapshotRecords: snapRecs,
	}
}

// Close seals the active segment. Further appends fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if lerr := l.lock.Close(); err == nil { // releases the flock
		err = lerr
	}
	return err
}
