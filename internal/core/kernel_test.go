package core

import "testing"

// TestKernelSelection: the instance representation picks the Eq. 4 loop on
// every construction path — dense scorers carry no shard-offset table (the
// dense loop), sparse ones carry one row per candidate event (the sparse
// loop).
func TestKernelSelection(t *testing.T) {
	dense, sparse := buildPair(t, 21, 6, 4, 3, 50, 0.5)
	costs := []float64{0, 0.25, 0.5, 0.75, 1, 1.25}
	for _, inst := range []*Instance{dense, sparse} {
		withOpts, err := NewScorerWithOptions(inst, ScorerOptions{EventCost: costs})
		if err != nil {
			t.Fatal(err)
		}
		next, d := mutateChainStep(t, inst, 0)
		warm, err := NewScorerFromDelta(withOpts, next, ScorerOptions{EventCost: costs}, d)
		if err != nil {
			t.Fatal(err)
		}
		for name, sc := range map[string]*Scorer{"NewScorer": NewScorer(inst), "WithOptions": withOpts, "FromDelta": warm} {
			switch {
			case !inst.IsSparse() && sc.off != nil:
				t.Errorf("dense %s scorer built a shard-offset table", name)
			case inst.IsSparse() && len(sc.off) != inst.NumEvents():
				t.Errorf("sparse %s scorer has %d offset rows, want %d", name, len(sc.off), inst.NumEvents())
			}
		}
	}
}

// assertScorersBitIdentical probes the full Eq. 4 surface of two scorers over
// the same instance — full-range scores, shard partials at the given bounds,
// utilities — across schedule stages (empty, assigned, stacked, after undo),
// requiring exact float equality.
func assertScorersBitIdentical(t *testing.T, ref, alt *Scorer, bounds []int) {
	t.Helper()
	inst := ref.inst
	sR, sA := NewSchedule(inst), NewSchedule(inst)
	check := func(stage string) {
		t.Helper()
		for e := 0; e < inst.NumEvents(); e++ {
			for tt := 0; tt < inst.NumIntervals(); tt++ {
				if a, b := ref.Score(sR, e, tt), alt.Score(sA, e, tt); a != b {
					t.Fatalf("%s: Score(e=%d,t=%d): %x vs %x", stage, e, tt, a, b)
				}
				for i := 0; i < len(bounds); i++ {
					for j := i + 1; j < len(bounds); j++ {
						lo, hi := bounds[i], bounds[j]
						if a, b := ref.ScoreUsers(sR, e, tt, lo, hi), alt.ScoreUsers(sA, e, tt, lo, hi); a != b {
							t.Fatalf("%s: ScoreUsers(e=%d,t=%d,[%d,%d)): %x vs %x", stage, e, tt, lo, hi, a, b)
						}
					}
				}
			}
		}
		if a, b := ref.Utility(sR), alt.Utility(sA); a != b {
			t.Fatalf("%s: Utility: %x vs %x", stage, a, b)
		}
	}
	assign := func(e, tt int) {
		t.Helper()
		if err := sR.Assign(e, tt); err != nil {
			t.Fatal(err)
		}
		if err := sA.Assign(e, tt); err != nil {
			t.Fatal(err)
		}
	}
	check("empty")
	// One assignment, then a second event stacked into the same interval so
	// the assigned-interest denominator cases engage.
	for e := 0; e < inst.NumEvents() && sR.Len() < 2; e++ {
		if sR.Valid(e, 0) {
			assign(e, 0)
		}
	}
	check("stacked")
	sR.UnassignLast()
	sA.UnassignLast()
	check("after-undo")
}

// TestSparseKernelShardOffsets: on a multi-shard instance (|U| spans three
// ShardUsers shards) the precomputed offset table and its binary-search
// fallback agree with the dense scalar reference at shard-aligned AND
// arbitrary misaligned bounds, and aligned shard partials sum to the full
// score exactly.
func TestSparseKernelShardOffsets(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-shard instance allocates ~2M floats")
	}
	nU := 2*ShardUsers + 1500
	dense, sparse := buildPair(t, 41, 4, 3, 2, nU, 0.05)
	ref := NewScorer(dense)
	sps := NewScorer(sparse)

	// The offset table has one entry per shard boundary plus the tail.
	nShards := (nU + ShardUsers - 1) / ShardUsers
	for e, off := range sps.off {
		if len(off) != nShards+1 {
			t.Fatalf("off[%d] has %d entries, want %d", e, len(off), nShards+1)
		}
		col := sparse.sparse[e]
		if off[nShards] != len(col.Users) {
			t.Fatalf("off[%d] tail = %d, want %d", e, off[nShards], len(col.Users))
		}
		for j := 1; j < nShards; j++ {
			bound := j * ShardUsers
			i := off[j]
			if i < len(col.Users) && int(col.Users[i]) < bound {
				t.Fatalf("off[%d][%d] = %d points below the shard boundary", e, j, i)
			}
			if i > 0 && int(col.Users[i-1]) >= bound {
				t.Fatalf("off[%d][%d] = %d skips nonzeros below the boundary", e, j, i)
			}
		}
	}

	// Aligned boundaries (table lookups), off-by-one neighbours and arbitrary
	// interior cuts (binary-search fallback) all agree with dense scalar —
	// also with the UserWeights/EventCost extensions folded in.
	bounds := []int{0, 1, ShardUsers - 1, ShardUsers, ShardUsers + 1, 12345, 2 * ShardUsers, nU - 1, nU}
	assertScorersBitIdentical(t, ref, sps, bounds)
	w := make([]float64, nU)
	for u := range w {
		w[u] = 0.5 + float64(u%4)*0.25
	}
	opts := ScorerOptions{UserWeights: w, EventCost: []float64{0, 0.25, 0.5, 0.75}}
	refW, err := NewScorerWithOptions(dense, opts)
	if err != nil {
		t.Fatal(err)
	}
	spsW, err := NewScorerWithOptions(sparse, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertScorersBitIdentical(t, refW, spsW, bounds)

	// The scoring engine's reduction contract: both loops produce
	// bit-identical shard partials, so reducing them in shard order yields
	// bit-identical totals for either representation and any worker count. (The shard
	// reduction is NOT compared against one full-range pass — summing
	// independently rounded partials reassociates the addition, which is why
	// the engine always reduces in fixed shards, sequentially or not.)
	sD, sS := NewSchedule(dense), NewSchedule(sparse)
	if err := sD.Assign(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := sS.Assign(0, 0); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < sparse.NumEvents(); e++ {
		for tt := 0; tt < sparse.NumIntervals(); tt++ {
			sumD, sumS := 0.0, 0.0
			for lo := 0; lo < nU; lo += ShardUsers {
				hi := lo + ShardUsers
				if hi > nU {
					hi = nU
				}
				sumD += ref.ScoreUsers(sD, e, tt, lo, hi)
				sumS += sps.ScoreUsers(sS, e, tt, lo, hi)
			}
			if sumD != sumS {
				t.Fatalf("shard reductions differ: dense %x vs sparse %x (e=%d,t=%d)", sumD, sumS, e, tt)
			}
		}
	}
}

// TestKernelWarmRebuild: NewScorerFromDelta on a sparse instance is
// bit-identical to a cold build, shares the previous scorer's shard offsets
// for clean columns and rebuilds the dirty ones.
func TestKernelWarmRebuild(t *testing.T) {
	_, sparse := buildPair(t, 51, 7, 4, 3, 60, 0.4)

	t.Run("sparse", func(t *testing.T) {
		prev := NewScorer(sparse)
		next, d := mutateChainStep(t, sparse, 0)
		cold := NewScorer(next)
		warm, err := NewScorerFromDelta(prev, next, ScorerOptions{}, d)
		if err != nil {
			t.Fatal(err)
		}
		sameScorerBits(t, cold, warm)
		dirty := markSet(d.Events, next.NumEvents())
		for e := range warm.off {
			shared := &warm.off[e][0] == &prev.off[e][0]
			if dirty[e] && shared {
				t.Fatalf("dirty event %d shares its offset table", e)
			}
			if !dirty[e] && !shared {
				t.Fatalf("clean event %d rebuilt its offset table", e)
			}
		}
	})
}
