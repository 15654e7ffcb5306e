package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/randx"
	"repro/internal/seio"
)

// chainInstance builds a small random instance in the given representation.
func chainInstance(t *testing.T, r *randx.RNG, rep core.Rep) *core.Instance {
	t.Helper()
	const nE, nT, nC, nU = 6, 4, 3, 40
	events := make([]core.Event, nE)
	for i := range events {
		events[i] = core.Event{Name: fmt.Sprintf("e%d", i), Location: i % 3, Resources: 1}
	}
	intervals := make([]core.Interval, nT)
	competing := make([]core.Competing, nC)
	for i := range competing {
		competing[i] = core.Competing{Name: fmt.Sprintf("c%d", i), Interval: r.Intn(nT)}
	}
	b, err := core.NewBuilder(events, intervals, competing, nU, 3, rep)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < nU; u++ {
		if err := b.AddUser(randomRow(r, nE+nC), randomRow(r, nT)); err != nil {
			t.Fatal(err)
		}
	}
	inst, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// randomRow draws n values, about a third of them nonzero.
func randomRow(r *randx.RNG, n int) []float32 {
	row := make([]float32, n)
	for i := range row {
		if r.Intn(3) == 0 {
			row[i] = float32(r.Range(0.05, 1))
		}
	}
	return row
}

// randomValue is zero a third of the time, so writes remove entries and
// write zeros over absent ones as well as insert and overwrite.
func randomValue(r *randx.RNG) float64 {
	if r.Intn(3) == 0 {
		return 0
	}
	return r.Range(0.05, 1)
}

// mutateRandomly applies one random mutation of the kinds the store applies
// (plus whole-row writes) and names it.
func mutateRandomly(t *testing.T, r *randx.RNG, in *core.Instance) string {
	t.Helper()
	u := r.Intn(in.NumUsers())
	switch op := r.Intn(5); op {
	case 0:
		in.SetInterest(u, r.Intn(in.NumEvents()), randomValue(r))
		return "SetInterest"
	case 1:
		in.SetCompetingInterest(u, r.Intn(in.NumCompeting()), randomValue(r))
		return "SetCompetingInterest"
	case 2:
		in.SetActivity(u, r.Intn(in.NumIntervals()), randomValue(r))
		return "SetActivity"
	case 3:
		in.SetInterestRow(u, randomRow(r, in.NumEvents()+in.NumCompeting()))
		return "SetInterestRow"
	default:
		col := randomRow(r, in.NumUsers())
		c := core.Competing{Name: fmt.Sprintf("new%d", in.NumCompeting()), Interval: r.Intn(in.NumIntervals())}
		if err := in.AddCompeting(c, col); err != nil {
			t.Fatal(err)
		}
		return "AddCompeting"
	}
}

func encodeInstance(t *testing.T, in *core.Instance) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := seio.WriteInstance(&buf, in); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotChainIsolationAndPurity walks a seeded chain of snapshots on a
// sparse and a dense instance. Each step freezes a snapshot (and digests it
// at once, filling the hash cells it shares), then applies one to three
// random mutations either to the receiver or to a fresh successor snapshot,
// as the store does. After every mutation the mutated instance's digest must
// equal the digest of its seio round trip: the digest is a pure function of
// content, whatever cached hashes the chain shares. After every step, every
// frozen snapshot must still encode to the same document and report the same
// digest.
func TestSnapshotChainIsolationAndPurity(t *testing.T) {
	for _, rep := range []core.Rep{core.RepSparse, core.RepDense} {
		t.Run(rep.String(), func(t *testing.T) {
			r := randx.New(20261017)
			cur := chainInstance(t, r, rep)
			type frozen struct {
				inst   *core.Instance
				doc    []byte
				digest string
			}
			var hist []frozen
			for step := 0; step < 60; step++ {
				snap := cur.Snapshot()
				hist = append(hist, frozen{snap, encodeInstance(t, snap), snap.Digest()})
				if r.Intn(2) == 0 {
					cur = cur.Snapshot()
				}
				// Up to three writes between snapshots, each followed by a
				// digest, so later writes hit columns this instance already
				// owns and whose hashes it has cached.
				var op string
				for n := 1 + r.Intn(3); n > 0; n-- {
					op = mutateRandomly(t, r, cur)
					back, err := seio.ReadInstance(bytes.NewReader(encodeInstance(t, cur)))
					if err != nil {
						t.Fatal(err)
					}
					if got, want := cur.Digest(), back.Digest(); got != want {
						t.Fatalf("step %d (%s): digest %s, round trip %s", step, op, got, want)
					}
				}
				for i, h := range hist {
					if !bytes.Equal(encodeInstance(t, h.inst), h.doc) {
						t.Fatalf("step %d (%s): snapshot %d content changed", step, op, i)
					}
					if got := h.inst.Digest(); got != h.digest {
						t.Fatalf("step %d (%s): snapshot %d digest %s, was %s", step, op, i, got, h.digest)
					}
				}
				if err := cur.Validate(); err != nil {
					t.Fatalf("step %d (%s): %v", step, op, err)
				}
			}
		})
	}
}
