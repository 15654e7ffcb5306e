package algo

import (
	"testing"

	"repro/internal/core"
)

// TestKernelVariantSchedulersBitIdentical is the kernel acceptance gate:
// every scheduler must produce bit-identical schedules, utilities and work
// counters on the dense and sparse builds of the same instance — the scalar
// and sparse Eq. 4 loops the representation picks — at sequential, mid and
// oversubscribed worker counts, against a sequential dense reference.
func TestKernelVariantSchedulersBitIdentical(t *testing.T) {
	type regime struct {
		nU      int
		workers []int
	}
	regimes := []regime{{500, []int{0, 3, 8}}}
	if !testing.Short() {
		// One multi-shard regime so the sparse shard-offset paths engage.
		regimes = append(regimes, regime{10_000, []int{0, 8}})
	}
	for _, rg := range regimes {
		dense, sparse := sparseDensePair(t, 71, 14, 5, 4, rg.nU, 0.15)
		k := 7
		for _, name := range Names() {
			ref, err := NewWithOptions(name, 7, core.ScorerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			rr, err := ref.Schedule(dense, k)
			if err != nil {
				t.Fatalf("%s reference: %v", name, err)
			}
			for label, inst := range map[string]*core.Instance{"dense": dense, "sparse": sparse} {
				for _, workers := range rg.workers {
					s, err := NewWithOptions(name, 7, core.ScorerOptions{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					rv, err := s.Schedule(inst, k)
					if err != nil {
						t.Fatalf("%s %s workers=%d: %v", name, label, workers, err)
					}
					if rv.Utility != rr.Utility {
						t.Errorf("|U|=%d %s %s workers=%d: Ω %x vs reference %x",
							rg.nU, name, label, workers, rv.Utility, rr.Utility)
					}
					if rv.Counters != rr.Counters {
						t.Errorf("|U|=%d %s %s workers=%d: counters %+v vs %+v",
							rg.nU, name, label, workers, rv.Counters, rr.Counters)
					}
					ga, gr := rv.Schedule.Assignments(), rr.Schedule.Assignments()
					if len(ga) != len(gr) {
						t.Fatalf("|U|=%d %s %s workers=%d: %d selections vs %d",
							rg.nU, name, label, workers, len(ga), len(gr))
					}
					for j := range ga {
						if ga[j] != gr[j] {
							t.Errorf("|U|=%d %s %s workers=%d: selection %d = %+v vs %+v",
								rg.nU, name, label, workers, j, ga[j], gr[j])
						}
					}
				}
			}
		}
	}
}
