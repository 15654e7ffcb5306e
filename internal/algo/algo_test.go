package algo

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/randx"
)

// all schedulers under test, keyed by name.
func schedulers() []Scheduler {
	return []Scheduler{ALG{}, INC{}, HOR{}, HORI{}, TOP{}, RAND{Seed: 1}}
}

// --- Golden traces of the paper's running example (Figures 2-4) ---

// Example 2 (Figure 2): ALG on the running example with k = 3 selects
// α(e4,t2), then α(e1,t1), then α(e2,t2).
func TestExample2ALGTrace(t *testing.T) {
	inst := core.RunningExample()
	res, err := ALG{}.Schedule(inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Assignment{{Event: 3, Interval: 1}, {Event: 0, Interval: 0}, {Event: 1, Interval: 1}}
	got := res.Schedule.Assignments()
	if len(got) != len(want) {
		t.Fatalf("ALG selected %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ALG selection %d = %+v, want %+v (full: %v)", i+1, got[i], want[i], res.Schedule)
		}
	}
	if math.Abs(res.Utility-1.407302) > 5e-4 {
		t.Errorf("ALG utility = %.6f, want 1.407302", res.Utility)
	}
	// Figure 2's update column: ALG recomputes 4 scores after selection ①
	// (e1,e2,e3 at t2 — e4 is taken) plus 1 after selection ② (e3 at t1;
	// e2@t1 is infeasible), plus the 8 initial scores.
	if res.ScoreEvals != 8+3+1 {
		t.Errorf("ALG performed %d score evaluations, want 12 (8 initial + 3 + 1 updates)", res.ScoreEvals)
	}
}

// Example 3 (Figure 3): INC returns the same schedule while performing only
// one score update beyond the initial 8 (α(e2,t2) before the third
// selection).
func TestExample3INCTrace(t *testing.T) {
	inst := core.RunningExample()
	res, err := INC{}.Schedule(inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Assignment{{Event: 3, Interval: 1}, {Event: 0, Interval: 0}, {Event: 1, Interval: 1}}
	got := res.Schedule.Assignments()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("INC selection %d = %+v, want %+v", i+1, got[i], want[i])
		}
	}
	if res.ScoreEvals != 8+1 {
		t.Errorf("INC performed %d score evaluations, want 9 (8 initial + 1 update; the paper's Example 3)", res.ScoreEvals)
	}
}

// Example 4 (Figure 4): HOR finds the same schedule as ALG/INC with 3
// updates — selections follow the horizontal policy, so the order is
// α(e4,t2), α(e1,t1) (layer 1), then α(e2,t2) (layer 2).
func TestExample4HORTrace(t *testing.T) {
	inst := core.RunningExample()
	res, err := HOR{}.Schedule(inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Assignment{{Event: 3, Interval: 1}, {Event: 0, Interval: 0}, {Event: 1, Interval: 1}}
	got := res.Schedule.Assignments()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("HOR selection %d = %+v, want %+v", i+1, got[i], want[i])
		}
	}
	// Figure 4: layer 2 recomputes the three remaining valid assignments
	// (e2@t1 is infeasible, e2@t2, e3@t1, e3@t2 are valid) — the paper
	// counts 3 updates — after the 8 initial computations.
	if res.ScoreEvals != 8+3 {
		t.Errorf("HOR performed %d score evaluations, want 11 (8 initial + 3 layer-2 updates)", res.ScoreEvals)
	}
}

// Example 5: HOR-I performs two of the three updates HOR performs in the
// second layer — after updating α(e2,t2) (score 0.16), α(e3,t2)'s stale 0.09
// is below the interval bound and is skipped; t1's α(e3,t1) must still be
// updated.
func TestExample5HORITrace(t *testing.T) {
	inst := core.RunningExample()
	res, err := HORI{}.Schedule(inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Assignment{{Event: 3, Interval: 1}, {Event: 0, Interval: 0}, {Event: 1, Interval: 1}}
	got := res.Schedule.Assignments()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("HOR-I selection %d = %+v, want %+v", i+1, got[i], want[i])
		}
	}
	if res.ScoreEvals != 8+2 {
		t.Errorf("HOR-I performed %d score evaluations, want 10 (8 initial + 2 layer-2 updates; the paper's Example 5)", res.ScoreEvals)
	}
}

// --- Baselines on the running example ---

func TestTOPRunningExample(t *testing.T) {
	inst := core.RunningExample()
	res, err := TOP{}.Schedule(inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	// TOP's initial top-3 valid assignments by score: e4@t2 (0.656),
	// e4@t1 invalid (e4 taken), e1@t1... ordering: 0.656 e4t2, 0.643 e4t1,
	// 0.590 e1t1, 0.573 e2t2, ... → picks e4@t2, e1@t1, e2@t2.
	want := []core.Assignment{{Event: 3, Interval: 1}, {Event: 0, Interval: 0}, {Event: 1, Interval: 1}}
	got := res.Schedule.Assignments()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TOP selection %d = %+v, want %+v", i+1, got[i], want[i])
		}
	}
	if res.ScoreEvals != 8 {
		t.Errorf("TOP must compute exactly |E|·|T| = 8 scores, got %d", res.ScoreEvals)
	}
}

func TestRANDProperties(t *testing.T) {
	inst := core.RunningExample()
	r1, err := RAND{Seed: 7}.Schedule(inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r1.ScoreEvals != 0 {
		t.Errorf("RAND performed %d score evaluations, want 0", r1.ScoreEvals)
	}
	if r1.Schedule.Len() != 3 {
		t.Errorf("RAND scheduled %d events, want 3", r1.Schedule.Len())
	}
	if err := r1.Schedule.CheckFeasible(); err != nil {
		t.Error(err)
	}
	// Determinism for a fixed seed.
	r2, _ := RAND{Seed: 7}.Schedule(inst, 3)
	for i, a := range r1.Schedule.Assignments() {
		if r2.Schedule.Assignments()[i] != a {
			t.Fatal("RAND not deterministic for fixed seed")
		}
	}
	// Different seeds eventually differ.
	differ := false
	for seed := uint64(1); seed <= 10 && !differ; seed++ {
		r3, _ := RAND{Seed: seed}.Schedule(inst, 3)
		for i, a := range r1.Schedule.Assignments() {
			if r3.Schedule.Assignments()[i] != a {
				differ = true
				break
			}
		}
	}
	if !differ {
		t.Error("RAND produced identical schedules across 10 seeds")
	}
}

// --- Shared behaviour across schedulers ---

func TestBadK(t *testing.T) {
	inst := core.RunningExample()
	for _, s := range schedulers() {
		if _, err := s.Schedule(inst, 0); err == nil {
			t.Errorf("%s accepted k = 0", s.Name())
		}
		if _, err := s.Schedule(inst, -5); err == nil {
			t.Errorf("%s accepted k = -5", s.Name())
		}
	}
}

func TestKLargerThanFeasible(t *testing.T) {
	// Two events, one location, one interval: only one assignment possible.
	events := []core.Event{
		{Location: 0, Resources: 1},
		{Location: 0, Resources: 1},
	}
	inst, err := core.NewInstance(events, []core.Interval{{}}, nil, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 3; u++ {
		inst.SetInterest(u, 0, 0.5)
		inst.SetInterest(u, 1, 0.5)
		inst.SetActivity(u, 0, 0.5)
	}
	for _, s := range schedulers() {
		res, err := s.Schedule(inst, 5)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Schedule.Len() != 1 {
			t.Errorf("%s scheduled %d events; only 1 is feasible", s.Name(), res.Schedule.Len())
		}
	}
}

func TestAllSchedulersFeasibleAndSized(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		inst := randomInstance(seed, 12, 4, 6, 30, 8)
		for _, s := range schedulers() {
			res, err := s.Schedule(inst, 6)
			if err != nil {
				t.Fatalf("%s seed %d: %v", s.Name(), seed, err)
			}
			if err := res.Schedule.CheckFeasible(); err != nil {
				t.Errorf("%s seed %d: %v", s.Name(), seed, err)
			}
			if res.Schedule.Len() > 6 {
				t.Errorf("%s seed %d: scheduled %d > k events", s.Name(), seed, res.Schedule.Len())
			}
			if res.Utility < 0 {
				t.Errorf("%s seed %d: negative utility %v", s.Name(), seed, res.Utility)
			}
		}
	}
}

func TestNewFactory(t *testing.T) {
	for _, name := range Names() {
		s, err := New(name, 3)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := New("nope", 0); err == nil {
		t.Error("unknown scheduler accepted")
	}
}

// --- Equivalence properties ---

// randomInstance builds a reproducible random instance. locSpread controls
// how many distinct locations exist (smaller → more location conflicts).
func randomInstance(seed uint64, nE, nT, nC, nU, locSpread int) *core.Instance {
	r := randx.New(seed)
	events := make([]core.Event, nE)
	for i := range events {
		events[i] = core.Event{Location: r.Intn(locSpread), Resources: float64(r.IntRange(1, 3))}
	}
	intervals := make([]core.Interval, nT)
	competing := make([]core.Competing, nC)
	for i := range competing {
		competing[i] = core.Competing{Interval: r.Intn(nT)}
	}
	inst, err := core.NewInstance(events, intervals, competing, nU, 7)
	if err != nil {
		panic(err)
	}
	row := make([]float32, inst.NumEvents()+inst.NumCompeting())
	act := make([]float32, inst.NumIntervals())
	for u := 0; u < nU; u++ {
		for i := range row {
			row[i] = float32(r.Float64())
		}
		inst.SetInterestRow(u, row)
		for i := range act {
			act[i] = float32(r.Float64())
		}
		inst.SetActivityRow(u, act)
	}
	return inst
}

// Proposition 3: INC and ALG always return the same solution — the very same
// sequence of selections, not just equal utility.
func TestProposition3INCEqualsALG(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		for _, k := range []int{1, 3, 7, 12} {
			inst := randomInstance(seed, 14, 4, 5, 25, 6)
			ra, err := (ALG{}).Schedule(inst, k)
			if err != nil {
				t.Fatal(err)
			}
			ri, err := (INC{}).Schedule(inst, k)
			if err != nil {
				t.Fatal(err)
			}
			ga, gi := ra.Schedule.Assignments(), ri.Schedule.Assignments()
			if len(ga) != len(gi) {
				t.Fatalf("seed %d k %d: ALG made %d selections, INC %d", seed, k, len(ga), len(gi))
			}
			for i := range ga {
				if ga[i] != gi[i] {
					t.Fatalf("seed %d k %d: selection %d differs: ALG %+v, INC %+v", seed, k, i, ga[i], gi[i])
				}
			}
			if ri.ScoreEvals > ra.ScoreEvals {
				t.Errorf("seed %d k %d: INC performed more score evals (%d) than ALG (%d)", seed, k, ri.ScoreEvals, ra.ScoreEvals)
			}
		}
	}
}

// Proposition 6: HOR-I and HOR always return the same solution.
func TestProposition6HORIEqualsHOR(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		for _, k := range []int{1, 3, 7, 12} {
			inst := randomInstance(seed, 14, 4, 5, 25, 6)
			rh, err := (HOR{}).Schedule(inst, k)
			if err != nil {
				t.Fatal(err)
			}
			ri, err := (HORI{}).Schedule(inst, k)
			if err != nil {
				t.Fatal(err)
			}
			gh, gi := rh.Schedule.Assignments(), ri.Schedule.Assignments()
			if len(gh) != len(gi) {
				t.Fatalf("seed %d k %d: HOR made %d selections, HOR-I %d", seed, k, len(gh), len(gi))
			}
			for i := range gh {
				if gh[i] != gi[i] {
					t.Fatalf("seed %d k %d: selection %d differs: HOR %+v, HOR-I %+v", seed, k, i, gh[i], gi[i])
				}
			}
			if ri.ScoreEvals > rh.ScoreEvals {
				t.Errorf("seed %d k %d: HOR-I performed more score evals (%d) than HOR (%d)", seed, k, ri.ScoreEvals, rh.ScoreEvals)
			}
		}
	}
}

// Section 3.4: HOR-I is identical to HOR when k ≤ |T| — including the work
// performed, since a single layer needs no updates.
func TestHORIIdenticalToHORSingleLayer(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		inst := randomInstance(seed, 14, 6, 5, 25, 6)
		k := 5 // k < |T| = 6
		rh, _ := (HOR{}).Schedule(inst, k)
		ri, _ := (HORI{}).Schedule(inst, k)
		if rh.ScoreEvals != ri.ScoreEvals {
			t.Errorf("seed %d: single-layer score evals differ: HOR %d, HOR-I %d", seed, rh.ScoreEvals, ri.ScoreEvals)
		}
		if rh.Utility != ri.Utility {
			t.Errorf("seed %d: single-layer utilities differ", seed)
		}
	}
}

// Proposition 4 region: when k ≤ |T|, HOR performs no update computations at
// all — exactly the initial valid-assignment scores — hence strictly fewer
// score evaluations than ALG whenever ALG performs any update.
func TestProposition4HORFewerComputations(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		inst := randomInstance(seed, 16, 8, 5, 25, 8)
		k := 6 // k ≤ |T| = 8
		ra, _ := (ALG{}).Schedule(inst, k)
		rh, _ := (HOR{}).Schedule(inst, k)
		if rh.ScoreEvals >= ra.ScoreEvals {
			t.Errorf("seed %d: HOR evals %d ≥ ALG evals %d with k ≤ |T|", seed, rh.ScoreEvals, ra.ScoreEvals)
		}
	}
}

// The greedy methods must never lose to RAND on average, and ALG's greedy
// utility must match the telescoped sum of its selected gains.
func TestGreedyBeatsRandomOnAverage(t *testing.T) {
	var greedy, random float64
	for seed := uint64(1); seed <= 10; seed++ {
		inst := randomInstance(seed, 16, 5, 6, 40, 6)
		ra, _ := (ALG{}).Schedule(inst, 8)
		rr, _ := (RAND{Seed: seed}).Schedule(inst, 8)
		greedy += ra.Utility
		random += rr.Utility
	}
	if greedy <= random {
		t.Errorf("greedy total %v not above random total %v", greedy, random)
	}
}

// HOR's utility should stay very close to ALG's. The paper reports identical
// utilities in >70% of its (large, default-parameter) experiments with a gap
// ≤1.3% otherwise; tiny random instances diverge more often, so here we
// require a ≥90% per-instance floor, a ≥97% aggregate, and a non-trivial
// exact-match rate. The harness-scale match-rate statistic is reproduced by
// the summary experiment in internal/exp.
func TestHORUtilityCloseToALG(t *testing.T) {
	same, total := 0, 0
	var ua, uh float64
	for seed := uint64(1); seed <= 25; seed++ {
		inst := randomInstance(seed, 16, 4, 6, 30, 8)
		ra, _ := (ALG{}).Schedule(inst, 8)
		rh, _ := (HOR{}).Schedule(inst, 8)
		total++
		ua += ra.Utility
		uh += rh.Utility
		if math.Abs(ra.Utility-rh.Utility) < 1e-9 {
			same++
		} else if rh.Utility < ra.Utility*0.90 {
			t.Errorf("seed %d: HOR utility %v below 90%% of ALG %v", seed, rh.Utility, ra.Utility)
		}
	}
	if uh < 0.97*ua {
		t.Errorf("aggregate HOR utility %v below 97%% of ALG %v", uh, ua)
	}
	if same*4 < total {
		t.Errorf("HOR matched ALG exactly in only %d/%d runs", same, total)
	}
}

// Counters must be self-consistent: Computations = ScoreEvals × |U|.
func TestComputationsScaling(t *testing.T) {
	inst := core.RunningExample()
	res, _ := (ALG{}).Schedule(inst, 2)
	if got := res.Computations(inst.NumUsers()); got != res.ScoreEvals*2 {
		t.Errorf("Computations = %d, want %d", got, res.ScoreEvals*2)
	}
}

// The reported utility must equal a from-scratch Ω recomputation.
func TestReportedUtilityMatchesScorer(t *testing.T) {
	inst := randomInstance(3, 12, 4, 5, 20, 6)
	sc := core.NewScorer(inst)
	for _, s := range schedulers() {
		res, err := s.Schedule(inst, 5)
		if err != nil {
			t.Fatal(err)
		}
		if u := sc.Utility(res.Schedule); math.Abs(u-res.Utility) > 1e-9 {
			t.Errorf("%s: reported %v, recomputed %v", s.Name(), res.Utility, u)
		}
	}
}

// Stress the INC bound logic with many intervals and heavy location
// conflicts, where M entries are invalidated often.
func TestINCEqualsALGStress(t *testing.T) {
	for seed := uint64(100); seed < 112; seed++ {
		inst := randomInstance(seed, 20, 10, 12, 15, 3)
		ra, _ := (ALG{}).Schedule(inst, 15)
		ri, _ := (INC{}).Schedule(inst, 15)
		ga, gi := ra.Schedule.Assignments(), ri.Schedule.Assignments()
		if len(ga) != len(gi) {
			t.Fatalf("seed %d: lengths differ %d vs %d", seed, len(ga), len(gi))
		}
		for i := range ga {
			if ga[i] != gi[i] {
				t.Fatalf("seed %d: selection %d differs", seed, i)
			}
		}
	}
}

// Stress HOR/HOR-I across multiple layers with k ≫ |T| and the worst case
// k mod |T| = 1 (Propositions 5 and 7).
func TestHOREquivalenceWorstCase(t *testing.T) {
	for seed := uint64(200); seed < 208; seed++ {
		inst := randomInstance(seed, 24, 4, 6, 15, 12)
		for _, k := range []int{9, 13} { // k mod |T| = 1 with |T| = 4
			rh, _ := (HOR{}).Schedule(inst, k)
			ri, _ := (HORI{}).Schedule(inst, k)
			gh, gi := rh.Schedule.Assignments(), ri.Schedule.Assignments()
			if len(gh) != len(gi) {
				t.Fatalf("seed %d k %d: lengths differ", seed, k)
			}
			for i := range gh {
				if gh[i] != gi[i] {
					t.Fatalf("seed %d k %d: selection %d differs: %+v vs %+v", seed, k, i, gh[i], gi[i])
				}
			}
		}
	}
}

// Degenerate instances: all-zero interest (every score 0) must still produce
// deterministic, feasible, k-sized schedules in all deterministic methods.
func TestZeroInterestDegenerate(t *testing.T) {
	events := make([]core.Event, 6)
	for i := range events {
		events[i] = core.Event{Location: i, Resources: 1}
	}
	inst, err := core.NewInstance(events, []core.Interval{{}, {}}, nil, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range schedulers() {
		res, err := s.Schedule(inst, 4)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Schedule.Len() != 4 {
			t.Errorf("%s: scheduled %d, want 4", s.Name(), res.Schedule.Len())
		}
		if res.Utility != 0 {
			t.Errorf("%s: utility %v, want 0", s.Name(), res.Utility)
		}
	}
	// ALG and INC must tie-break identically on the all-zero instance.
	ra, _ := (ALG{}).Schedule(inst, 4)
	ri, _ := (INC{}).Schedule(inst, 4)
	for i, a := range ra.Schedule.Assignments() {
		if ri.Schedule.Assignments()[i] != a {
			t.Fatal("zero-interest tie-break diverged between ALG and INC")
		}
	}
}

// When competing interest is weak, adding a second event to an interval
// gains almost nothing (the stacking gain is ∝ the competing sum C), so the
// greedy ALG spreads events one per interval — exactly the horizontal
// policy. HOR must then return ALG's schedule identically. This guards
// against a systematic bias in the layer selection: any divergence between
// HOR and ALG in other tests must come from genuine stacking opportunities,
// not from implementation drift.
func TestHOREqualsALGUnderWeakCompetition(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		r := randx.New(seed)
		nE, nT, nU := 18, 9, 40
		events := make([]core.Event, nE)
		for i := range events {
			events[i] = core.Event{Location: i, Resources: 1}
		}
		competing := make([]core.Competing, nT)
		for i := range competing {
			competing[i] = core.Competing{Interval: i}
		}
		inst, err := core.NewInstance(events, make([]core.Interval, nT), competing, nU, 100)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < nU; u++ {
			for e := 0; e < nE; e++ {
				inst.SetInterest(u, e, 0.2+0.8*r.Float64())
			}
			for c := 0; c < nT; c++ {
				inst.SetCompetingInterest(u, c, 0.01*r.Float64()) // weak competition
			}
			for tv := 0; tv < nT; tv++ {
				inst.SetActivity(u, tv, r.Float64())
			}
		}
		ra, _ := (ALG{}).Schedule(inst, 8) // k < |T|: single HOR layer
		rh, _ := (HOR{}).Schedule(inst, 8)
		ga, gh := ra.Schedule.Assignments(), rh.Schedule.Assignments()
		if len(ga) != len(gh) {
			t.Fatalf("seed %d: lengths differ", seed)
		}
		for i := range ga {
			if ga[i] != gh[i] {
				t.Fatalf("seed %d: selection %d differs: ALG %+v, HOR %+v", seed, i, ga[i], gh[i])
			}
		}
	}
}

// Single interval: every selection staleness-cascades (M empties each step),
// exercising INC's Φ-unavailable bootstrap path.
func TestSingleIntervalBootstrap(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		inst := randomInstance(seed, 10, 1, 2, 20, 10)
		ra, _ := (ALG{}).Schedule(inst, 5)
		ri, _ := (INC{}).Schedule(inst, 5)
		ga, gi := ra.Schedule.Assignments(), ri.Schedule.Assignments()
		if len(ga) != len(gi) {
			t.Fatalf("seed %d: lengths differ", seed)
		}
		for i := range ga {
			if ga[i] != gi[i] {
				t.Fatalf("seed %d: selection %d differs", seed, i)
			}
		}
	}
}

// The equivalence propositions must survive the Section 2.1 extensions:
// user weights scale σ per user and costs shift scores per event, both
// preserving the stale-score upper-bound property that INC and HOR-I rely
// on. The profit variant also exercises negative scores.
func TestEquivalencesUnderExtensions(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		inst := randomInstance(seed, 14, 4, 5, 20, 6)
		weights := make([]float64, 20)
		for i := range weights {
			weights[i] = 0.2 + float64((int(seed)+i)%5)*0.4
		}
		costs := make([]float64, 14)
		for i := range costs {
			costs[i] = float64((int(seed)+i)%6) * 0.8 // large enough for negative scores
		}
		opts := core.ScorerOptions{UserWeights: weights, EventCost: costs}
		ra, err := (ALG{Opts: opts}).Schedule(inst, 10)
		if err != nil {
			t.Fatal(err)
		}
		ri, err := (INC{Opts: opts}).Schedule(inst, 10)
		if err != nil {
			t.Fatal(err)
		}
		ga, gi := ra.Schedule.Assignments(), ri.Schedule.Assignments()
		if len(ga) != len(gi) {
			t.Fatalf("seed %d: INC/ALG lengths differ under extensions", seed)
		}
		for i := range ga {
			if ga[i] != gi[i] {
				t.Fatalf("seed %d: INC/ALG selection %d differs under extensions", seed, i)
			}
		}
		rh, err := (HOR{Opts: opts}).Schedule(inst, 10)
		if err != nil {
			t.Fatal(err)
		}
		rhi, err := (HORI{Opts: opts}).Schedule(inst, 10)
		if err != nil {
			t.Fatal(err)
		}
		gh, ghi := rh.Schedule.Assignments(), rhi.Schedule.Assignments()
		if len(gh) != len(ghi) {
			t.Fatalf("seed %d: HOR/HOR-I lengths differ under extensions", seed)
		}
		for i := range gh {
			if gh[i] != ghi[i] {
				t.Fatalf("seed %d: HOR/HOR-I selection %d differs under extensions", seed, i)
			}
		}
	}
}

// Bad extension options must surface as errors from every scheduler.
func TestSchedulersRejectBadOptions(t *testing.T) {
	inst := core.RunningExample()
	bad := core.ScorerOptions{UserWeights: []float64{1}} // 2 users
	for _, name := range Names() {
		s, err := NewWithOptions(name, 1, bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Schedule(inst, 1); err == nil {
			t.Errorf("%s accepted bad options", name)
		}
	}
}

// Profit-oriented selection actually changes behaviour: making the greedy
// favourite prohibitively expensive must push it out of the schedule.
func TestCostChangesSelection(t *testing.T) {
	inst := core.RunningExample()
	plain, err := (ALG{}).Schedule(inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Plain greedy picks e4 first (score 0.656). Price e4 out.
	costs := []float64{0, 0, 0, 10}
	priced, err := (ALG{Opts: core.ScorerOptions{EventCost: costs}}).Schedule(inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Schedule.Assignments()[0].Event != 3 {
		t.Fatal("premise broken: plain greedy no longer starts with e4")
	}
	for _, a := range priced.Schedule.Assignments() {
		if a.Event == 3 {
			t.Fatal("e4 scheduled despite prohibitive cost")
		}
	}
	if priced.Utility >= plain.Utility {
		t.Error("profit utility should drop when the best event is priced out")
	}
}

// Extend from an empty schedule must reproduce ALG exactly (schedule, score
// evaluations and examined pairs), and extending a prefix of ALG's schedule
// must complete it identically (greedy's selections depend only on the
// schedule state, not on how it was reached).
func TestExtendMatchesALG(t *testing.T) {
	inst := randomInstance(5, 14, 4, 5, 25, 6)
	full, err := (ALG{}).Schedule(inst, 8)
	if err != nil {
		t.Fatal(err)
	}
	fromEmpty, err := Extend(inst, core.NewSchedule(inst), 8, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fromEmpty.ScoreEvals != full.ScoreEvals || fromEmpty.Examined != full.Examined {
		t.Fatalf("Extend(empty) counters (%d evals, %d examined) != ALG's (%d, %d)",
			fromEmpty.ScoreEvals, fromEmpty.Examined, full.ScoreEvals, full.Examined)
	}
	fa, ea := full.Schedule.Assignments(), fromEmpty.Schedule.Assignments()
	if len(fa) != len(ea) {
		t.Fatalf("lengths differ: %d vs %d", len(fa), len(ea))
	}
	for i := range fa {
		if fa[i] != ea[i] {
			t.Fatalf("selection %d differs: %+v vs %+v", i, fa[i], ea[i])
		}
	}
	// Prefix + Extend = full schedule.
	prefix := core.NewSchedule(inst)
	for _, a := range fa[:3] {
		if err := prefix.Assign(a.Event, a.Interval); err != nil {
			t.Fatal(err)
		}
	}
	rest, err := Extend(inst, prefix, 5, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ra := rest.Schedule.Assignments()
	if len(ra) != len(fa) {
		t.Fatalf("extended schedule has %d assignments, want %d", len(ra), len(fa))
	}
	for i := range fa {
		if ra[i] != fa[i] {
			t.Fatalf("extended selection %d differs: %+v vs %+v", i, ra[i], fa[i])
		}
	}
	// The base schedule must be untouched.
	if prefix.Len() != 3 {
		t.Fatalf("base schedule mutated: %d assignments", prefix.Len())
	}
}

func TestExtendValidation(t *testing.T) {
	inst := randomInstance(6, 8, 3, 3, 15, 5)
	other := randomInstance(7, 8, 3, 3, 15, 5)
	if _, err := Extend(inst, core.NewSchedule(inst), 0, core.ScorerOptions{}); err == nil {
		t.Error("extra=0 accepted")
	}
	if _, err := Extend(inst, nil, 2, core.ScorerOptions{}); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := Extend(inst, core.NewSchedule(other), 2, core.ScorerOptions{}); err == nil {
		t.Error("cross-instance base accepted")
	}
	if _, err := Extend(inst, core.NewSchedule(inst), 2, core.ScorerOptions{UserWeights: []float64{1}}); err == nil {
		t.Error("bad options accepted")
	}
}

// Extending past feasibility stops gracefully with the maximum feasible
// schedule.
func TestExtendExhaustsFeasibility(t *testing.T) {
	events := []core.Event{{Location: 0, Resources: 1}, {Location: 0, Resources: 1}}
	inst, err := core.NewInstance(events, []core.Interval{{}}, nil, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Extend(inst, core.NewSchedule(inst), 5, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Len() != 1 {
		t.Fatalf("scheduled %d, only 1 feasible", res.Schedule.Len())
	}
}
