package core

import "testing"

// FuzzKernelEquivalence drives random instances × schedules × user-range
// bounds through both Eq. 4 loops: the sparse loop must agree bitwise with
// the dense scalar reference on Score, ScoreUsers and Utility. This is the
// differential oracle for the whole Eq. 4 kernel surface.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint8(3), uint8(2), uint16(120), uint8(128), uint16(0), uint16(120), uint8(2))
	f.Add(uint64(7), uint8(1), uint8(1), uint8(0), uint16(1), uint8(255), uint16(0), uint16(1), uint8(0))
	f.Add(uint64(42), uint8(8), uint8(4), uint8(4), uint16(500), uint8(30), uint16(17), uint16(400), uint8(5))
	f.Add(uint64(99), uint8(3), uint8(2), uint8(1), uint16(257), uint8(0), uint16(256), uint16(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, nE8, nT8, nC8 uint8, nU16 uint16, dens uint8, lo16, hi16 uint16, assigns uint8) {
		nE := 1 + int(nE8)%8
		nT := 1 + int(nT8)%5
		nC := int(nC8) % 5
		nU := 1 + int(nU16)%600
		density := float64(dens) / 255
		dense, sparse := buildPair(t, seed, nE, nT, nC, nU, density)

		ref, sps := NewScorer(dense), NewScorer(sparse)

		// One schedule per representation, mutated in lockstep: validity is a
		// pure function of the problem, so both must accept the same moves.
		sD, sS := NewSchedule(dense), NewSchedule(sparse)
		for e := 0; e < nE && sD.Len() < int(assigns); e++ {
			tt := (e + int(seed)) % nT
			vD, vS := sD.Valid(e, tt), sS.Valid(e, tt)
			if vD != vS {
				t.Fatalf("Valid(%d,%d) diverges across representations: %v vs %v", e, tt, vD, vS)
			}
			if !vD {
				continue
			}
			if err := sD.Assign(e, tt); err != nil {
				t.Fatal(err)
			}
			if err := sS.Assign(e, tt); err != nil {
				t.Fatal(err)
			}
		}

		lo, hi := int(lo16)%(nU+1), int(hi16)%(nU+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		for e := 0; e < nE; e++ {
			for tt := 0; tt < nT; tt++ {
				if got, want := sps.Score(sS, e, tt), ref.Score(sD, e, tt); got != want {
					t.Fatalf("sparse Score(e=%d,t=%d) = %x, scalar %x", e, tt, got, want)
				}
				if got, want := sps.ScoreUsers(sS, e, tt, lo, hi), ref.ScoreUsers(sD, e, tt, lo, hi); got != want {
					t.Fatalf("sparse ScoreUsers(e=%d,t=%d,[%d,%d)) = %x, scalar %x", e, tt, lo, hi, got, want)
				}
			}
		}
		if got, want := sps.Utility(sS), ref.Utility(sD); got != want {
			t.Fatalf("sparse Utility = %x, scalar %x", got, want)
		}
	})
}
