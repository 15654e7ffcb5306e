package core

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// Copy-on-write snapshots.
//
// A Snapshot is an O(1) frozen view of an instance: it shares all storage
// with the original until either side writes, at which point the writing
// side copies only what it is about to write. The unit of copying is one
// sparse interest column, one activity interval, or the whole dense interest
// matrix (the dense layout is one contiguous array, which is what its Eq. 4
// loop pays for). So a mutation of a sparse instance costs the columns and
// intervals it touches plus one O(|E|+|C|+|T|) copy of the column headers,
// never O(nonzeros) or O(|U|·|T|). This is the concurrency contract the
// server's versioned instance store is built on: in-flight solves keep
// reading the snapshot they started with while the store publishes a
// mutated successor version — the same read-your-snapshot idiom persistent
// stores like ebakusdb use for safe concurrent reads during transactions.
//
// Snapshot and the mutating accessors must be externally serialized with
// each other (the store holds a lock across them). Concurrent *readers* of
// already-published snapshots need no synchronization: a published
// snapshot's storage is never written again — any later mutation writes to
// a fresh copy owned by the successor — and Snapshot itself writes only the
// receiver's ownership record, which no reader looks at.

// ownership is the storage an instance created or cloned since its last
// Snapshot, and may therefore write in place. The header slices (sparse,
// colSum, activity, actSum) are owned whenever the ownership is live; the
// flags say which columns behind them are. Snapshot freezes the record, so
// both the receiver and the snapshot start a fresh one, owning nothing, on
// their next write.
type ownership struct {
	// frozen is set by Snapshot. It is atomic so that snapshots taken
	// concurrently of one published instance do not race.
	frozen   atomic.Bool
	interest bool   // the dense interest matrix
	cols     []bool // sparse interest columns
	acts     []bool // activity intervals
}

// ownAll marks every column and interval of a freshly built instance as
// owned, so filling it in never copies.
func (in *Instance) ownAll() {
	o := &ownership{
		interest: in.interest != nil,
		cols:     make([]bool, len(in.sparse)),
		acts:     make([]bool, len(in.activity)),
	}
	for h := range o.cols {
		o.cols[h] = true
	}
	for t := range o.acts {
		o.acts[t] = true
	}
	in.own = o
}

// writable returns the live ownership record, starting a new one after a
// Snapshot: the header slices are copied once, and nothing behind them is
// owned yet.
func (in *Instance) writable() *ownership {
	if o := in.own; o != nil && !o.frozen.Load() {
		return o
	}
	in.sparse = slices.Clone(in.sparse)
	in.colSum = slices.Clone(in.colSum)
	in.activity = slices.Clone(in.activity)
	in.actSum = slices.Clone(in.actSum)
	in.own = &ownership{cols: make([]bool, len(in.sparse)), acts: make([]bool, len(in.activity))}
	return in.own
}

// Snapshot returns an O(1) copy-on-write snapshot of the instance. Both the
// receiver and the snapshot keep sharing the storage; the first write on
// either side to a column, an interval or the dense matrix copies just that
// piece, so neither can observe the other's subsequent writes. Metadata
// slices (Events, Intervals, Competing) share backing arrays too; mutators
// that change them (AddCompeting) copy first.
func (in *Instance) Snapshot() *Instance {
	if in.own != nil {
		in.own.frozen.Store(true)
	}
	cp := *in
	cp.own = nil
	return &cp
}

// ownInterest makes the dense interest matrix exclusively owned, copying it
// if it is still shared with a snapshot.
func (in *Instance) ownInterest() {
	if o := in.writable(); !o.interest {
		in.interest = slices.Clone(in.interest)
		o.interest = true
	}
}

// ownColumn makes sparse column h exclusively owned, cloning it if it is
// still shared with a snapshot, and drops its cached hash: the caller is
// about to write it. SparseCol.set shifts in place, so this must precede
// every write.
func (in *Instance) ownColumn(h int) {
	if o := in.writable(); !o.cols[h] {
		in.sparse[h] = in.sparse[h].clone()
		in.colSum[h] = new(sumCell)
		o.cols[h] = true
		return
	}
	in.colSum[h].reset()
}

// ownInterval makes activity interval t exclusively owned, cloning it if it
// is still shared with a snapshot, and drops its cached hash.
func (in *Instance) ownInterval(t int) {
	if o := in.writable(); !o.acts[t] {
		in.activity[t] = slices.Clone(in.activity[t])
		if in.actSum != nil {
			in.actSum[t] = new(sumCell)
		}
		o.acts[t] = true
		return
	}
	if in.actSum != nil {
		in.actSum[t].reset()
	}
}

// AddCompeting appends a competing event together with the per-user interest
// column µ(·, c) (length |U|, values in [0, 1]). The interest matrix grows by
// one column without writing any existing one, so existing snapshots are
// unaffected: a sparse instance appends the column to its own header slice,
// a dense one builds a grown copy of its matrix. It is the mutation behind
// the server's "a third-party event just got announced" what-if updates.
func (in *Instance) AddCompeting(c Competing, interest []float32) error {
	if c.Interval < 0 || c.Interval >= len(in.Intervals) {
		return fmt.Errorf("core: competing event references interval %d, have %d intervals", c.Interval, len(in.Intervals))
	}
	if len(interest) != in.numUsers {
		return fmt.Errorf("core: competing interest column has %d values, want %d users", len(interest), in.numUsers)
	}
	for u, v := range interest {
		// Negated-conjunction form so NaN (for which both v < 0 and v > 1
		// are false) is rejected too, not silently stored.
		if !(v >= 0 && v <= 1) {
			return fmt.Errorf("core: competing interest value %v for user %d out of [0,1]", v, u)
		}
	}
	o := in.writable()
	if in.sparse != nil {
		var col SparseCol
		for u, v := range interest {
			if v != 0 {
				col.Users = append(col.Users, uint32(u))
				col.Mu = append(col.Mu, v)
			}
		}
		in.sparse = append(in.sparse, col)
		in.colSum = append(in.colSum, new(sumCell))
		o.cols = append(o.cols, true)
	} else {
		grown := make([]float32, 0, len(in.interest)+in.numUsers)
		grown = append(grown, in.interest...)
		grown = append(grown, interest...)
		in.interest = grown
		o.interest = true
	}
	in.Competing = append(append([]Competing(nil), in.Competing...), c)
	return nil
}
