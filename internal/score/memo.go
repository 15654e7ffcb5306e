package score

import (
	"encoding/binary"
	"math"
	"sync/atomic"

	"repro/internal/core"
)

// The prefix memo: the engine's one score cache.
//
// An Eq. 4 score α_e^t reads interest column e, interval t's competing sum
// and activity column, e's cost, and the schedule's per-user interest sum at
// t — and that sum is the in-order accumulation of the columns of the events
// the schedule assigned to t. So a score is a pure function of the instance
// snapshot, the options, t, the ordered list of events at t (the interval's
// PREFIX) and e. The memo keys rows by (t, prefix); row entry e holds the
// exact bits scoreShards produced for α_e^t against that prefix. Empty
// prefixes hold every scheduler's first frontier.
//
// Serving a memoized entry therefore returns the same bits a fresh pass would
// compute, and schedulers count every requested evaluation themselves, so
// ScoreEvals, Examined, schedules and utilities are identical whether the
// engine computed or remembered. Two guards keep the key honest:
//
//   - only schedules over the engine's own instance are memoized (another
//     snapshot's sums were built from other columns);
//   - an interval whose sum went through UnassignLast while staying
//     non-empty (core.Schedule.Prefix reports exact=false) carries float
//     dust, so it is neither served nor stored.
//
// Rows are bounded together by gridMaxCells; past the bound new prefixes are
// computed without being stored.

// memoAbsent is the bit pattern of an empty entry: a signalling NaN, which
// float64 arithmetic never produces (NaN results are quiet), so no computed
// score collides with it. Entries hold score bits XOR memoAbsent, so a
// freshly zeroed row is all-absent.
const memoAbsent uint64 = 0x7ff0deadbeef0001

// memoRow is the memoized scores of every event against one interval prefix.
// The key, interval and prefix are immutable; entries are written once per
// computing pass (racing writers store identical bits) and read lock-free.
type memoRow struct {
	key    string
	t      int
	prefix []int
	vals   []atomic.Uint64
	// used marks a row this engine served from or stored into; only used
	// rows carry to a warm successor (see carryMemo).
	used atomic.Bool
}

func (r *memoRow) get(e int) (float64, bool) {
	w := r.vals[e].Load()
	if w == 0 {
		return 0, false
	}
	r.touch()
	return math.Float64frombits(w ^ memoAbsent), true
}

func (r *memoRow) put(e int, v float64) {
	r.vals[e].Store(math.Float64bits(v) ^ memoAbsent)
	r.touch()
}

// touch sets used without writing the shared flag on every hit.
func (r *memoRow) touch() {
	if !r.used.Load() {
		r.used.Store(true)
	}
}

// appendMemoKey encodes (t, prefix) as a sequence of uvarints. The encoding
// is self-delimiting, so distinct keys never collide.
func appendMemoKey(b []byte, t int, prefix []int) []byte {
	b = binary.AppendUvarint(b, uint64(t))
	for _, e := range prefix {
		b = binary.AppendUvarint(b, uint64(e))
	}
	return b
}

// rowFor returns the memo row for interval t's prefix in s, creating it when
// the cell bound allows. It returns nil when the prefix must not be memoized
// (another instance's schedule, or undo dust at t) or the bound is reached.
// Row allocation happens outside the lock.
func (en *Engine) rowFor(s *core.Schedule, t int) *memoRow {
	if s.Instance() != en.inst {
		return nil
	}
	prefix, exact := s.Prefix(t)
	if !exact {
		return nil
	}
	var buf [32]byte
	k := appendMemoKey(buf[:0], t, prefix)
	en.memoMu.RLock()
	r := en.memo[string(k)]
	en.memoMu.RUnlock()
	if r != nil {
		return r
	}
	nE := int64(en.inst.NumEvents())
	if nE == 0 || en.memoCells.Load()+nE > gridMaxCells {
		return nil
	}
	nr := &memoRow{key: string(k), t: t, prefix: append([]int(nil), prefix...), vals: make([]atomic.Uint64, nE)}
	en.memoMu.Lock()
	defer en.memoMu.Unlock()
	if r := en.memo[nr.key]; r != nil {
		return r
	}
	if en.memoCells.Load()+nE > gridMaxCells {
		return nil
	}
	if en.memo == nil {
		en.memo = make(map[string]*memoRow)
	}
	en.memo[nr.key] = nr
	en.memoCells.Add(nE)
	return nr
}

// carryMemo seeds en's memo from prev's across the mutation d. Only rows prev
// served from or stored into are carried — rows prev itself inherited and
// never used (an extend's one-off prefixes, say) die here instead of being
// copied on every mutation. Of those:
//
//   - rows of a dirty competing or activity interval are dropped (every
//     score at t reads that state);
//   - rows whose prefix holds a dirty event are dropped (the interval's
//     interest sum reads that column);
//   - dirty events' entries are cleared in the rows that survive.
//
// Everything else a surviving entry read is untouched by d, so it is still
// the exact bits a cold engine computes. prev's lock is held only to collect
// row pointers; entries are copied outside it.
func (en *Engine) carryMemo(prev *Engine, d core.ScorerDelta) {
	nE, nT := en.inst.NumEvents(), en.inst.NumIntervals()
	if prev.inst.NumEvents() != nE || prev.inst.NumIntervals() != nT {
		return
	}
	prev.memoMu.RLock()
	used := make([]*memoRow, 0, len(prev.memo))
	for _, r := range prev.memo {
		if r.used.Load() {
			used = append(used, r)
		}
	}
	prev.memoMu.RUnlock()
	if len(used) == 0 {
		return
	}
	dirtyT := make([]bool, nT)
	for _, t := range d.CompIntervals {
		dirtyT[t] = true
	}
	for _, t := range d.ActIntervals {
		dirtyT[t] = true
	}
	dirtyE := make([]bool, nE)
	for _, e := range d.Events {
		dirtyE[e] = true
	}
	memo := make(map[string]*memoRow, len(used))
rows:
	for _, r := range used {
		if dirtyT[r.t] {
			continue
		}
		for _, e := range r.prefix {
			if dirtyE[e] {
				continue rows
			}
		}
		nr := &memoRow{key: r.key, t: r.t, prefix: r.prefix, vals: make([]atomic.Uint64, nE)}
		for e := range nr.vals {
			if !dirtyE[e] {
				nr.vals[e].Store(r.vals[e].Load())
			}
		}
		memo[nr.key] = nr
	}
	en.memo = memo
	en.memoCells.Store(int64(len(memo) * nE))
}

// MemoCells reports the entries the engine's memo rows hold room for (rows ×
// |E|, 8 bytes each): the footprint gridMaxCells bounds.
func (en *Engine) MemoCells() int64 { return en.memoCells.Load() }
