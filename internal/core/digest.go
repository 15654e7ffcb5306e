package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sync/atomic"
)

// Digest returns a hex SHA-256 content digest of the instance: the problem
// parameters (θ, |U|), the event/interval/competing metadata and both
// matrices. Two instances with the same digest describe the same SES problem
// in the same representation, so the digest is a safe cache key for solver
// results and a cheap equality check for deduplicating uploads. Names
// participate (they appear in reports), as does ordering — the digest
// identifies the instance as given, not an isomorphism class. The value is a
// pure function of the content: how the instance was built, snapshotted or
// mutated does not enter it.
//
// Dense and sparse instances hash under different domain tags. The dense
// stream stays byte-identical to earlier builds, so old WAL records keep
// digest-verifying on replay. The sparse digest ("ses-instance-sparse-v2")
// hashes one SHA-256 per interest column and one per activity interval
// instead of the raw values, and caches each beside its column (see
// sumCell): a snapshot shares the cached hashes of the columns it shares,
// so after a mutation Digest re-hashes only the columns and intervals that
// were written, plus the O(|E|+|C|+|T|) metadata and hash list. WAL round
// trips preserve the representation (seio encodes sparse instances
// sparsely), so recorded digests always compare against a recomputation in
// the same representation.
func (in *Instance) Digest() string {
	if in.sparse == nil {
		return in.denseDigest()
	}
	d := newDigestStream("ses-instance-sparse-v2", in)
	for h, col := range in.sparse {
		s := in.colSum[h].p.Load()
		if s == nil {
			s = in.colSum[h].fill(sparseColSum(col))
		}
		d.h.Write(s[:])
	}
	for t, col := range in.activity {
		s := in.actSum[t].p.Load()
		if s == nil {
			s = in.actSum[t].fill(activitySum(col))
		}
		d.h.Write(s[:])
	}
	return d.hex()
}

// LegacySparseDigest returns the digest a sparse instance had before the
// per-column hashes ("ses-instance-sparse-v1": every nonzero and every
// activity value in one stream), and false on a dense instance. It costs a
// full pass over the instance, so only WAL replay calls it, and only for a
// record whose logged digest does not match Digest.
func (in *Instance) LegacySparseDigest() (string, bool) {
	if in.sparse == nil {
		return "", false
	}
	d := newDigestStream("ses-instance-sparse-v1", in)
	for h := range in.sparse {
		d.int(int64(len(in.sparse[h].Users)))
		d.u32s(in.sparse[h].Users)
		d.f32s(in.sparse[h].Mu)
	}
	for _, col := range in.activity {
		d.f32s(col)
	}
	return d.hex(), true
}

// denseDigest is the dense stream: every interest cell, then every activity
// cell, interval-major.
func (in *Instance) denseDigest() string {
	d := newDigestStream("ses-instance-v1", in)
	d.f32s(in.interest)
	for _, col := range in.activity {
		d.f32s(col)
	}
	return d.hex()
}

// digestStream is a SHA-256 stream with the fixed-width encoders every
// digest uses.
type digestStream struct {
	h     hash.Hash
	buf   [8]byte
	str   []byte     // reused by putStr, so names hash without an allocation each
	batch [4096]byte // batches u32s and f32s
}

// newDigestStream starts a digest with its domain tag, θ, |U| and the
// event, interval and competing metadata.
func newDigestStream(tag string, in *Instance) *digestStream {
	d := &digestStream{h: sha256.New()}
	d.putStr(tag)
	d.f64(in.Theta)
	d.int(int64(in.numUsers))
	d.int(int64(len(in.Events)))
	for _, e := range in.Events {
		d.putStr(e.Name)
		d.int(int64(e.Location))
		d.f64(e.Resources)
	}
	d.int(int64(len(in.Intervals)))
	for _, t := range in.Intervals {
		d.putStr(t.Name)
		d.int(t.Start)
		d.int(t.End)
	}
	d.int(int64(len(in.Competing)))
	for _, c := range in.Competing {
		d.putStr(c.Name)
		d.int(int64(c.Interval))
		d.int(c.Start)
		d.int(c.End)
	}
	return d
}

func (d *digestStream) int(v int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *digestStream) f64(v float64) { d.int(int64(math.Float64bits(v))) }

func (d *digestStream) putStr(s string) {
	d.int(int64(len(s)))
	d.str = append(d.str[:0], s...)
	d.h.Write(d.str)
}

func (d *digestStream) hex() string { return hex.EncodeToString(d.h.Sum(nil)) }

func (d *digestStream) sum() (s [32]byte) {
	d.h.Sum(s[:0])
	return s
}

// sparseColSum hashes one sparse interest column: its length, its users and
// the bits of its µ values.
func sparseColSum(col SparseCol) [32]byte {
	d := &digestStream{h: sha256.New()}
	d.int(int64(len(col.Users)))
	d.u32s(col.Users)
	d.f32s(col.Mu)
	return d.sum()
}

// activitySum hashes one activity interval's values.
func activitySum(col []float32) [32]byte {
	d := &digestStream{h: sha256.New()}
	d.f32s(col)
	return d.sum()
}

// sumCell caches the SHA-256 of one column's content. A cell belongs to the
// content, not to an instance: snapshots sharing a column share its cell,
// and copy-on-write gives a cloned column a fresh one (Instance.ownColumn,
// ownInterval). Concurrent Digest calls on snapshots that share a cell may
// fill it at the same time; they compute the same value, and the atomic
// pointer makes the fill race-free.
type sumCell struct{ p atomic.Pointer[[32]byte] }

// newSumCells returns n empty cells.
func newSumCells(n int) []*sumCell {
	cells := make([]*sumCell, n)
	for i := range cells {
		cells[i] = new(sumCell)
	}
	return cells
}

// fill caches a computed hash and returns it.
func (c *sumCell) fill(s [32]byte) *[32]byte {
	c.p.Store(&s)
	return &s
}

// reset drops the cached hash before an in-place write to an exclusively
// owned column. The load keeps bulk writes (SetActivityRow per user) from
// issuing a locked store per cell.
func (c *sumCell) reset() {
	if c.p.Load() != nil {
		c.p.Store(nil)
	}
}

// u32s streams a uint32 slice into the hash in little-endian form, batched
// like f32s.
func (d *digestStream) u32s(vals []uint32) {
	n := 0
	for _, v := range vals {
		binary.LittleEndian.PutUint32(d.batch[n:], v)
		n += 4
		if n == len(d.batch) {
			d.h.Write(d.batch[:])
			n = 0
		}
	}
	if n > 0 {
		d.h.Write(d.batch[:n])
	}
}

// f32s streams a float32 slice into the hash in little-endian bit
// representation, batching through a fixed buffer to avoid per-value Write
// calls on million-user matrices.
func (d *digestStream) f32s(vals []float32) {
	n := 0
	for _, v := range vals {
		binary.LittleEndian.PutUint32(d.batch[n:], math.Float32bits(v))
		n += 4
		if n == len(d.batch) {
			d.h.Write(d.batch[:])
			n = 0
		}
	}
	if n > 0 {
		d.h.Write(d.batch[:n])
	}
}
