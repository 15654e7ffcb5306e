package server

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/seio"
)

// This file wires internal/persist into the service: boot-time replay of the
// WAL + snapshot into the store/cache/jobs, the append hooks every mutation
// and completed result flows through, and the background compactor that
// rolls the log into snapshots so replay cost stays bounded.
//
// Replay is idempotent and version-guarded (see Store's restore methods):
// compaction dumps state *after* sealing the covered segments, so a snapshot
// may already include the effect of records that replay re-delivers, and the
// guards turn those into no-ops. Replay finishes before New returns — sesd
// recovers to a bit-identical store (names, versions, digests), result cache
// and finished-job table before it serves a single request.

// openPersistence recovers state from cfg.DataDir and attaches the WAL hooks
// and the compactor. Called by New before the server takes traffic.
func (s *Server) openPersistence() error {
	start := time.Now()
	wal, rec, err := persist.Open(persist.Options{
		Dir:          s.cfg.DataDir,
		Fsync:        s.cfg.Fsync,
		SegmentBytes: s.cfg.SegmentBytes,
		Metrics:      s.persistM,
	}, s.replayRecord)
	if err != nil {
		return fmt.Errorf("server: recover %s: %w", s.cfg.DataDir, err)
	}
	s.wal = wal
	s.recovery = &rec
	s.recoveryMS = seio.DurationMS(time.Since(start))
	s.store.SetWAL(s.walAppend)
	s.jobs.onFinish = func(j *Job) { _ = s.appendJobRecord(j) }
	s.compactKick = make(chan struct{}, 1)
	s.compactQuit = make(chan struct{})
	s.compactWG.Add(1)
	go s.compactLoop()
	// The replayed backlog counts against the compaction threshold — a
	// crash just short of it must not double the bound (or, on a
	// write-idle server, re-replay the same records on every boot).
	s.walSinceSnap.Store(int64(rec.Records))
	if rec.Records >= s.cfg.CompactEvery {
		s.compactKick <- struct{}{}
	}
	return nil
}

// closePersistence stops the compactor and seals the log. Called by Close
// after the pool drained, so every in-flight result had its chance to log.
func (s *Server) closePersistence() {
	if s.wal == nil {
		return
	}
	close(s.compactQuit)
	s.compactWG.Wait()
	_ = s.wal.Close()
}

// walAppend is the one choke point every record passes through: it appends,
// counts failures, and kicks the compactor past the threshold. Returns the
// append error so mutation paths can refuse to publish.
func (s *Server) walAppend(rec *seio.WALRecord) error {
	err := s.wal.Append(rec)
	if err != nil {
		s.walAppendErrors.Add(1)
		return err
	}
	if s.walSinceSnap.Add(1) >= int64(s.cfg.CompactEvery) {
		select {
		case s.compactKick <- struct{}{}:
		default: // a kick is already pending
		}
	}
	return nil
}

// appendSolveRecord logs a completed solve (a result-cache entry) so repeat
// queries stay O(1) across restarts. Best-effort: the response is already
// computed and cached in memory, so a log failure costs only post-restart
// warmth, not correctness.
func (s *Server) appendSolveRecord(key cacheKey, resp seio.SolveResponse) {
	if s.wal == nil {
		return
	}
	_ = s.walAppend(walSolveRecord(key, resp))
}

// walSolveRecord maps one result-cache entry to its durable record; the one
// place the cacheKey↔WALSolve field correspondence lives (append path and
// compactor dump both use it, so they cannot drift).
func walSolveRecord(key cacheKey, resp seio.SolveResponse) *seio.WALRecord {
	return &seio.WALRecord{
		Version: seio.WALFormatVersion,
		Kind:    seio.WALKindSolve,
		Solve: &seio.WALSolve{
			Name:            key.name,
			StoreVersion:    key.version,
			Algorithm:       key.algorithm,
			K:               key.k,
			Seed:            key.seed,
			OptsFingerprint: key.opts,
			Response:        resp,
		},
	}
}

// appendJobRecord logs a job's current status. For the terminal form it is
// hooked to Jobs.onFinish and invoked on the goroutine that retired the
// job's last cell, so Close (which drains the pool before sealing the log)
// cannot race past an unlogged job; the finish hook tolerates a failed
// append (the job stays queryable in memory), but the submit-time caller
// must not — it returns the error so the submission can be refused instead
// of handing out a job ID that a crash would recycle to another client.
func (s *Server) appendJobRecord(j *Job) error {
	wj := seio.WALJob{Seq: j.seq, Status: j.status(true)}
	if fin := j.finishedAt(); !fin.IsZero() {
		wj.FinishedAtMS = fin.UnixMilli()
	}
	return s.walAppend(&seio.WALRecord{
		Version: seio.WALFormatVersion,
		Kind:    seio.WALKindJob,
		Job:     &wj,
	})
}

// replayRecord applies one durable record during boot-time recovery.
func (s *Server) replayRecord(rec *seio.WALRecord) error {
	switch rec.Kind {
	case seio.WALKindMeta:
		s.store.restoreVersions(rec.Meta.LastVersions)
		s.jobs.restoreSeq(rec.Meta.JobSeq)
	case seio.WALKindPut:
		p := rec.Put
		inst, err := seio.ReadInstance(bytes.NewReader(p.Instance))
		if err != nil {
			return fmt.Errorf("instance %q v%d: %w", p.Name, p.StoreVersion, err)
		}
		info, applied := s.store.restorePut(p.Name, inst, p.StoreVersion)
		if applied && !digestMatches(inst, info.Digest, p.Digest) {
			return fmt.Errorf("instance %q v%d: recovered digest %s does not match logged %s",
				p.Name, p.StoreVersion, info.Digest, p.Digest)
		}
		// Mirror handlePut: a replacing upload invalidated the name's older
		// cached results before this version's solves were ever logged.
		// Runs even when the store skipped a snapshot-absorbed record —
		// older-version solve records replayed just before it may have
		// resurrected entries the live server had dropped; every entry of
		// THIS version's solves replays after this record, so nothing valid
		// is lost. (A no-op for first puts and snapshot entries.)
		s.cache.InvalidateInstance(p.Name)
	case seio.WALKindMutate:
		m := rec.Mutate
		last := s.store.lastVersion(m.Name)
		if m.StoreVersion <= last {
			// Already absorbed by the snapshot — but still drop the name's
			// cache entries, exactly as the live mutation did: replayed
			// solve records of superseded versions that preceded this
			// record must not outlive it (this version's own solves replay
			// after it and re-fill the cache).
			s.cache.InvalidateInstance(m.Name)
			return nil
		}
		if m.StoreVersion != last+1 {
			return fmt.Errorf("instance %q: mutation to v%d but version sequence is at %d (log gap)",
				m.Name, m.StoreVersion, last)
		}
		cur, _, err := s.store.Get(m.Name)
		if err != nil {
			return fmt.Errorf("instance %q: mutation to v%d of a deleted instance", m.Name, m.StoreVersion)
		}
		next := cur.Snapshot()
		if err := applyMutation(next, m.Request); err != nil {
			return fmt.Errorf("instance %q v%d: re-apply mutation: %w", m.Name, m.StoreVersion, err)
		}
		info, applied := s.store.restorePut(m.Name, next, m.StoreVersion)
		if applied && !digestMatches(next, info.Digest, m.Digest) {
			return fmt.Errorf("instance %q v%d: replayed mutation digest %s does not match logged %s",
				m.Name, m.StoreVersion, info.Digest, m.Digest)
		}
		// Mirror the live mutation path: older versions' results leave the
		// cache (their entries were invalidated before the solve records of
		// the new version were ever logged).
		s.cache.InvalidateInstance(m.Name)
	case seio.WALKindDelete:
		s.store.restoreDelete(rec.Delete.Name, rec.Delete.PriorVersion)
		s.cache.InvalidateInstance(rec.Delete.Name)
	case seio.WALKindSolve:
		v := rec.Solve
		resp := v.Response
		// The logged response embeds the instance info of its day; a
		// record written before a digest change carries the old value.
		// Serve the version's info as the store now reports it.
		if _, info, err := s.store.Get(v.Name); err == nil && info.Version == v.StoreVersion {
			resp.Instance = info
		}
		s.cache.Put(cacheKey{
			name:      v.Name,
			version:   v.StoreVersion,
			algorithm: v.Algorithm,
			k:         v.K,
			seed:      v.Seed,
			opts:      v.OptsFingerprint,
		}, resp)
	case seio.WALKindJob:
		s.jobs.restore(rec.Job.Seq, rec.Job.Status, rec.Job.FinishedAtMS)
	default:
		// ReadWALRecord validates kinds, so this is unreachable short of a
		// version-gated kind added without a replay arm.
		return fmt.Errorf("unhandled wal record kind %q", rec.Kind)
	}
	return nil
}

// digestMatches reports whether a replayed instance matches the digest its
// record logged; current is the instance's Digest. Sparse records written
// before the per-column digest carry the full-stream v1 value. Computing it
// is a full pass over the instance, so it happens only after current failed
// to match, and replaying a log of current records never pays for it.
func digestMatches(inst *core.Instance, current, logged string) bool {
	if current == logged {
		return true
	}
	v1, ok := inst.LegacySparseDigest()
	return ok && v1 == logged
}

// compactLoop runs snapshot compactions kicked by walAppend's threshold.
// After a failure it cools down before honoring the next kick: the restored
// backlog counter re-arms the kick on every append, and retrying a failing
// full-state dump back-to-back (each attempt seals a segment and streams the
// whole store) would amplify exactly the disk pressure that is usually the
// cause of the failure.
func (s *Server) compactLoop() {
	defer s.compactWG.Done()
	for {
		select {
		case <-s.compactQuit:
			return
		case <-s.compactKick:
			if s.compactNow() {
				continue
			}
			select {
			case <-s.compactQuit:
				return
			case <-time.After(30 * time.Second):
			}
		}
	}
}

// compactNow rolls the log into a full-state snapshot: seal the active
// segment, then stream the meta record, every live instance, the result
// cache and the finished jobs. State is dumped after the seal, so the
// version-guarded replay tolerates the snapshot running ahead of the seal
// point (see persist.Log.Compact).
func (s *Server) compactNow() bool {
	pending := s.walSinceSnap.Swap(0)
	err := s.wal.Compact(func(write func(*seio.WALRecord) error) error {
		// barrierDump waits for mutations whose record is already in the
		// sealed segments to finish publishing, so the dump can never miss
		// an acknowledged write whose segment this compaction deletes.
		live, tombstones := s.store.barrierDump()
		if err := write(&seio.WALRecord{
			Version: seio.WALFormatVersion,
			Kind:    seio.WALKindMeta,
			Meta: &seio.WALMeta{
				LastVersions: tombstones,
				JobSeq:       s.jobs.seqSnapshot(),
			},
		}); err != nil {
			return err
		}
		for _, v := range live {
			rec, err := walPutRecord(v)
			if err != nil {
				return err
			}
			if err := write(rec); err != nil {
				return err
			}
		}
		for _, e := range s.cache.dump() {
			if err := write(walSolveRecord(e.key, e.resp)); err != nil {
				return err
			}
		}
		for _, wj := range s.jobs.dumpJobs() {
			j := wj
			if err := write(&seio.WALRecord{
				Version: seio.WALFormatVersion,
				Kind:    seio.WALKindJob,
				Job:     &j,
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		s.walCompactErrors.Add(1)
		// The backlog was not compacted away: restore its count so the
		// next append retries (after the loop's cooldown), instead of
		// deferring by a whole fresh CompactEvery window (which would let
		// replay cost double).
		s.walSinceSnap.Add(pending)
		return false
	}
	return true
}

// Recovery reports the boot-time replay that built this process's state and
// how long it took in milliseconds; nil and 0 when running memory-only.
func (s *Server) Recovery() (*persist.RecoveryStats, float64) {
	return s.recovery, s.recoveryMS
}
