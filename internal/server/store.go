// Package server implements sesd, the online SES solver service: a versioned
// instance store with copy-on-write snapshots (in-memory, optionally backed
// by a write-ahead log — internal/persist), a bounded worker pool executing
// solves with backpressure, a result cache keyed by instance version, and the
// HTTP/JSON API tying them together (stdlib net/http only).
//
// The design follows the store-backed query-service shape of the systems in
// PAPERS.md: expensive data (an instance's interest/activity matrices) is
// uploaded once and versioned, while many cheap queries (solve, extend,
// simulate, summarize) run against immutable snapshots. Mutations never block
// readers — they publish a successor version built from a core.Instance
// copy-on-write snapshot, the idiom persistent stores like ebakusdb use for
// safe concurrent reads during transactions.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/metrics/span"
	"repro/internal/seio"
)

// ErrNotFound is returned for operations on instance names the store does
// not hold.
var ErrNotFound = errors.New("server: instance not found")

// ErrWALAppend wraps write-ahead-log failures: the mutation was NOT applied
// (the store publishes only after the log accepts the record), so the caller
// sees a consistent, durable state — just not the one it asked for.
var ErrWALAppend = errors.New("server: write-ahead log append failed")

// versioned is one published instance version. Once stored it is immutable:
// mutations build a successor from a snapshot and swap the pointer.
type versioned struct {
	inst *core.Instance
	info seio.InstanceInfo
}

// nameLock serializes the mutation pipeline of one instance name. refs
// counts holders plus waiters and is guarded by Store.mu, which is what lets
// unlockName garbage-collect the entry: it may be deleted only when nobody
// holds or awaits it AND the name itself is gone, so churning instance names
// cannot grow the lock map forever (the leak PR 1 shipped with).
type nameLock struct {
	mu   sync.Mutex
	refs int
}

// Store maps instance names to their current published version. Reads return
// the published snapshot and may use it indefinitely without locking; writes
// (Put, Mutate, Delete) serialize per name and bump the version.
//
// Version sequences are per name and never restart — not even across
// Delete + re-Put (lastVer outlives the entry). The result cache keys on
// (name, version), so a repeated version for a name would let an in-flight
// solve of deleted content poison the cache of its replacement.
//
// With a WAL attached (SetWAL), every mutation appends its record to the log
// *before* publishing, under the name's write lock — so the log's record
// order per name matches the published version order exactly, which is what
// makes replay deterministic.
type Store struct {
	// mu guards the maps; it is held only for pointer swaps and lookups.
	mu      sync.RWMutex
	m       map[string]*versioned
	lastVer map[string]uint64
	// writeLocks serializes the mutation pipeline (snapshot, apply, digest,
	// log, publish) per instance name, so concurrent writers of one name
	// cannot lose updates while a slow O(matrix) digest of one instance
	// never stalls writes to others. Entries are reference-counted and
	// removed once the last holder of a deleted name lets go; only lastVer
	// (8 bytes per name ever used) persists across Delete.
	writeLocks map[string]*nameLock

	// wal, when set, receives one record per mutation before it publishes.
	wal func(*seio.WALRecord) error
	// pubMu brackets every append→publish pair (readers) so the compactor
	// (writer, via barrierDump) can wait out mutations whose record already
	// reached the sealed log but whose publish has not landed yet — the one
	// window where a state dump could miss a logged-and-acknowledged write
	// whose segment the compaction is about to delete.
	pubMu sync.RWMutex
}

// NewStore returns an empty instance store.
func NewStore() *Store {
	return &Store{
		m:          make(map[string]*versioned),
		lastVer:    make(map[string]uint64),
		writeLocks: make(map[string]*nameLock),
	}
}

// SetWAL installs the write-ahead hook called (under the name's write lock)
// with every mutation's record before it is published. It must be set before
// the store takes traffic; a non-nil error vetoes the mutation.
func (st *Store) SetWAL(fn func(*seio.WALRecord) error) { st.wal = fn }

// lockName acquires the mutation lock of name, creating it on first use.
func (st *Store) lockName(name string) *nameLock {
	st.mu.Lock()
	l := st.writeLocks[name]
	if l == nil {
		l = new(nameLock)
		st.writeLocks[name] = l
	}
	// The ref is taken under st.mu, before blocking on l.mu: a waiter
	// always holds a ref, so unlockName can never free a lock someone is
	// queued on.
	l.refs++
	st.mu.Unlock()
	l.mu.Lock()
	return l
}

// unlockName releases the mutation lock and drops its map entry once it has
// no holders or waiters and the name no longer exists.
func (st *Store) unlockName(name string, l *nameLock) {
	l.mu.Unlock()
	st.mu.Lock()
	l.refs--
	if l.refs == 0 {
		if _, live := st.m[name]; !live {
			delete(st.writeLocks, name)
		}
	}
	st.mu.Unlock()
}

func makeInfo(name string, ver uint64, digest string, inst *core.Instance) seio.InstanceInfo {
	info := seio.InstanceInfo{
		Name:      name,
		Version:   ver,
		Digest:    digest,
		Events:    inst.NumEvents(),
		Intervals: inst.NumIntervals(),
		Competing: inst.NumCompeting(),
		Users:     inst.NumUsers(),
		Theta:     inst.Theta,
	}
	if inst.IsSparse() {
		info.Rep = "sparse"
		info.InterestNNZ = inst.InterestNonzeros()
	}
	return info
}

// publish swaps in v as the current version of name.
func (st *Store) publish(name string, v *versioned) {
	st.mu.Lock()
	st.m[name] = v
	st.lastVer[name] = v.info.Version
	st.mu.Unlock()
}

// walPutRecord builds the durable form of one published instance version:
// the full seio instance document plus the store metadata replay verifies
// against. Shared by Put and the compactor's snapshot dump.
func walPutRecord(v *versioned) (*seio.WALRecord, error) {
	var buf bytes.Buffer
	if err := seio.WriteInstance(&buf, v.inst); err != nil {
		return nil, fmt.Errorf("encode instance for wal: %w", err)
	}
	return &seio.WALRecord{
		Version: seio.WALFormatVersion,
		Kind:    seio.WALKindPut,
		Put: &seio.WALPut{
			Name:         v.info.Name,
			StoreVersion: v.info.Version,
			Digest:       v.info.Digest,
			Instance:     json.RawMessage(bytes.TrimSpace(buf.Bytes())),
		},
	}, nil
}

// logWAL appends rec if a WAL is attached, wrapping failures in ErrWALAppend
// so the HTTP layer can map them to 500 instead of 400.
func (st *Store) logWAL(rec *seio.WALRecord) error {
	if st.wal == nil {
		return nil
	}
	if err := st.wal(rec); err != nil {
		return fmt.Errorf("%w: %v", ErrWALAppend, err)
	}
	return nil
}

// Put stores the instance under name, replacing any existing one. The
// version sequence continues from the highest version the name ever had.
// It reports whether the name currently exists. With a WAL attached, the
// record is logged before the version publishes; on log failure nothing is
// published.
func (st *Store) Put(name string, inst *core.Instance) (seio.InstanceInfo, bool, error) {
	l := st.lockName(name)
	defer st.unlockName(name, l)
	// Snapshot detaches the stored matrices from the caller's instance, so
	// a caller mutating its upload afterwards cannot corrupt the store.
	// Digest is O(matrix) and runs before mu so readers never wait on it.
	snap := inst.Snapshot()
	digest := snap.Digest()
	st.mu.RLock()
	_, existed := st.m[name]
	ver := st.lastVer[name] + 1
	st.mu.RUnlock()
	v := &versioned{inst: snap, info: makeInfo(name, ver, digest, snap)}
	// The O(matrix) record encode happens before the pubMu bracket: only
	// the append→publish pair needs it, and a pending compaction barrier
	// blocks *new* readers, so a slow encode inside would stall every
	// other instance's mutations behind this one upload.
	var rec *seio.WALRecord
	if st.wal != nil {
		var err error
		if rec, err = walPutRecord(v); err != nil {
			// Wrapped like logWAL failures: an accepted upload that cannot
			// be made durable is the server's fault (500), not the client's.
			return seio.InstanceInfo{}, existed, fmt.Errorf("%w: %v", ErrWALAppend, err)
		}
	}
	st.pubMu.RLock()
	defer st.pubMu.RUnlock()
	if rec != nil {
		if err := st.logWAL(rec); err != nil {
			return seio.InstanceInfo{}, existed, err
		}
	}
	st.publish(name, v)
	return v.info, existed, nil
}

// Get returns the current published snapshot of the named instance. The
// returned instance is immutable and remains valid (and consistent) even if
// the store mutates or deletes the name afterwards.
func (st *Store) Get(name string) (*core.Instance, seio.InstanceInfo, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	v, ok := st.m[name]
	if !ok {
		return nil, seio.InstanceInfo{}, ErrNotFound
	}
	return v.inst, v.info, nil
}

// Mutate applies the batch to a copy-on-write successor of the named
// instance and publishes it as the next version. In-flight readers keep
// their snapshot; if validation (or the WAL) fails nothing is published. The
// apply and digest run outside mu, so readers of any instance are never
// blocked by a slow mutation. On a sparse instance both cost what the batch
// touches: the successor clones only the columns and intervals it writes,
// and the digest re-hashes only those. The WAL records the request itself —
// the delta, not the matrices — and replay re-applies it, verifying the
// digest. A non-nil trace gets one child span per stage (apply, digest,
// wal_append, publish); a nil one costs no clock reads.
func (st *Store) Mutate(name string, req seio.MutateRequest, tr *span.Trace) (seio.InstanceInfo, error) {
	l := st.lockName(name)
	defer st.unlockName(name, l)
	st.mu.RLock()
	v, ok := st.m[name]
	st.mu.RUnlock()
	if !ok {
		return seio.InstanceInfo{}, ErrNotFound
	}
	sp := tr.Start("apply")
	next := v.inst.Snapshot()
	err := applyMutation(next, req)
	sp.End()
	if err != nil {
		return seio.InstanceInfo{}, err
	}
	sp = tr.Start("digest")
	nv := &versioned{inst: next, info: makeInfo(name, v.info.Version+1, next.Digest(), next)}
	sp.End()
	sp = tr.Start("wal_append")
	st.pubMu.RLock()
	defer st.pubMu.RUnlock()
	err = st.logWAL(&seio.WALRecord{
		Version: seio.WALFormatVersion,
		Kind:    seio.WALKindMutate,
		Mutate: &seio.WALMutate{
			Name:         name,
			StoreVersion: nv.info.Version,
			Digest:       nv.info.Digest,
			Request:      req,
		},
	})
	sp.End()
	if err != nil {
		return seio.InstanceInfo{}, err
	}
	sp = tr.Start("publish")
	st.publish(name, nv)
	sp.End()
	return nv.info, nil
}

// applyMutation validates and applies one MutateRequest to a private
// copy-on-write successor; any error discards the whole batch.
func applyMutation(in *core.Instance, req seio.MutateRequest) error {
	checkCell := func(kind string, u seio.CellUpdate, max int) error {
		if u.User < 0 || u.User >= in.NumUsers() {
			return fmt.Errorf("%s update: user %d out of range (have %d users)", kind, u.User, in.NumUsers())
		}
		if u.Index < 0 || u.Index >= max {
			return fmt.Errorf("%s update: index %d out of range (have %d)", kind, u.Index, max)
		}
		// The negated-conjunction form rejects NaN too (both halves are
		// false for it): PATCH is a trust boundary, and a single NaN/Inf
		// cell — or a finite float64 like 1e308 that overflows to +Inf on
		// the float32 store — would poison every downstream utility and
		// make solve responses unencodable. The 400 names the exact cell.
		if !(u.Value >= 0 && u.Value <= 1) {
			return fmt.Errorf("%s update for (user %d, index %d): value %v out of [0,1]", kind, u.User, u.Index, u.Value)
		}
		return nil
	}
	for _, u := range req.Interest {
		if err := checkCell("interest", u, in.NumEvents()); err != nil {
			return err
		}
		in.SetInterest(u.User, u.Index, u.Value)
	}
	for _, u := range req.CompetingInterest {
		if err := checkCell("competing_interest", u, in.NumCompeting()); err != nil {
			return err
		}
		in.SetCompetingInterest(u.User, u.Index, u.Value)
	}
	for _, u := range req.Activity {
		if err := checkCell("activity", u, in.NumIntervals()); err != nil {
			return err
		}
		in.SetActivity(u.User, u.Index, u.Value)
	}
	for _, nc := range req.AddCompeting {
		c := core.Competing{Name: nc.Name, Interval: nc.Interval}
		if err := in.AddCompeting(c, nc.Interest); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes the named instance, reporting whether it existed. The
// name's version sequence is retained so a later re-Put cannot reuse a
// version number.
func (st *Store) Delete(name string) (bool, error) {
	l := st.lockName(name)
	defer st.unlockName(name, l)
	st.mu.RLock()
	_, ok := st.m[name]
	prior := st.lastVer[name]
	st.mu.RUnlock()
	if !ok {
		return false, nil
	}
	st.pubMu.RLock()
	defer st.pubMu.RUnlock()
	if err := st.logWAL(&seio.WALRecord{
		Version: seio.WALFormatVersion,
		Kind:    seio.WALKindDelete,
		Delete:  &seio.WALDelete{Name: name, PriorVersion: prior},
	}); err != nil {
		return true, err
	}
	st.mu.Lock()
	delete(st.m, name)
	st.mu.Unlock()
	return true, nil
}

// List returns the metadata of every stored instance, sorted by name.
func (st *Store) List() []seio.InstanceInfo {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]seio.InstanceInfo, 0, len(st.m))
	for _, v := range st.m {
		out = append(out, v.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of stored instances.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.m)
}

// ---- Recovery-side entry points (boot-time replay, compaction dumps). ----
//
// Replay records are idempotent upserts guarded by the version sequence:
// compaction snapshots state *after* sealing the covered segments, so a
// snapshot may already include the effect of records replayed after it, and
// these guards are what make re-applying them a no-op.

// restorePut installs an instance at an explicit version, skipping records
// the version sequence has already absorbed. It reports whether it applied,
// with the computed metadata for digest verification.
func (st *Store) restorePut(name string, inst *core.Instance, ver uint64) (seio.InstanceInfo, bool) {
	digest := inst.Digest()
	st.mu.Lock()
	defer st.mu.Unlock()
	if ver <= st.lastVer[name] {
		return seio.InstanceInfo{}, false
	}
	v := &versioned{inst: inst, info: makeInfo(name, ver, digest, inst)}
	st.m[name] = v
	st.lastVer[name] = ver
	return v.info, true
}

// restoreDelete replays a deletion: it removes the entry unless a newer
// version (already absorbed by a snapshot) has superseded the delete, and in
// all cases keeps the version sequence at least at the deleted version.
func (st *Store) restoreDelete(name string, prior uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if v, ok := st.m[name]; ok && v.info.Version <= prior {
		delete(st.m, name)
	}
	if st.lastVer[name] < prior {
		st.lastVer[name] = prior
	}
}

// restoreVersions max-merges a snapshot's version-sequence table, reviving
// the tombstones of deleted names.
func (st *Store) restoreVersions(m map[string]uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for name, v := range m {
		if st.lastVer[name] < v {
			st.lastVer[name] = v
		}
	}
}

// currentVersion returns the currently PUBLISHED version of the name, false
// when the name is not live (never stored, or deleted). It is the staleness
// oracle for the result and engine caches: an insert whose version does not
// match the live version was computed against superseded content and must be
// dropped, because the invalidation that should have covered it may already
// have run.
func (st *Store) currentVersion(name string) (uint64, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	v, ok := st.m[name]
	if !ok {
		return 0, false
	}
	return v.info.Version, true
}

// lastVersion returns the name's version sequence (0 = never stored).
func (st *Store) lastVersion(name string) uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.lastVer[name]
}

// tombstoneVersions copies the version sequences of DELETED names for a
// snapshot's meta record. Live names are deliberately excluded: their
// sequence is implied by their put record, and listing them in the meta
// would trip the replay guard into skipping the snapshot's own puts (the
// guard treats "version ≤ sequence" as already-absorbed). The "every name is
// in exactly one of put-records or tombstones" invariant is NOT provided
// here (dump and this method each take st.mu separately) — it comes from
// barrierDump holding pubMu exclusively across both calls, which keeps every
// mutation out; call them only through barrierDump.
func (st *Store) tombstoneVersions() map[string]uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make(map[string]uint64)
	for name, v := range st.lastVer {
		if _, live := st.m[name]; !live {
			out[name] = v
		}
	}
	return out
}

// dump snapshots every live version, sorted by name.
func (st *Store) dump() []*versioned {
	st.mu.RLock()
	out := make([]*versioned, 0, len(st.m))
	for _, v := range st.m {
		out = append(out, v)
	}
	st.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].info.Name < out[j].info.Name })
	return out
}

// barrierDump is the compactor's view of the store, taken AFTER waiting out
// every in-flight append→publish pair (pubMu writer side). Without the
// barrier, a mutation whose record landed in a just-sealed segment but whose
// publish had not happened yet would be missing from both the snapshot (the
// dump ran too early) and the log (its segment is about to be deleted) —
// silently losing an acknowledged write. Records appended after the barrier
// go to the post-seal segment and replay on top of the snapshot, where the
// version guards absorb any overlap.
func (st *Store) barrierDump() ([]*versioned, map[string]uint64) {
	st.pubMu.Lock()
	defer st.pubMu.Unlock()
	return st.dump(), st.tombstoneVersions()
}
