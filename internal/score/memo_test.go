package score

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/randx"
)

// repInstance builds a reproducible random instance in the given
// representation; density is the share of nonzero interest cells.
func repInstance(t testing.TB, seed uint64, nE, nT, nC, nU int, density float64, rep core.Rep) *core.Instance {
	t.Helper()
	r := randx.New(seed)
	events := make([]core.Event, nE)
	for i := range events {
		events[i] = core.Event{Location: r.Intn(nE), Resources: float64(r.IntRange(1, 3))}
	}
	intervals := make([]core.Interval, nT)
	competing := make([]core.Competing, nC)
	for i := range competing {
		competing[i] = core.Competing{Interval: r.Intn(nT)}
	}
	b, err := core.NewBuilder(events, intervals, competing, nU, 10, rep)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float32, nE+nC)
	act := make([]float32, nT)
	for u := 0; u < nU; u++ {
		for i := range row {
			row[i] = 0
			if r.Float64() < density {
				row[i] = float32(r.Range(0.05, 1))
			}
		}
		for i := range act {
			act[i] = float32(r.Float64())
		}
		if err := b.AddUser(row, act); err != nil {
			t.Fatal(err)
		}
	}
	inst, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// memoWalk assigns the moves one at a time (skipping invalid ones) and, at
// every schedule state on the way, scores the full grid through ScoreBatch
// and through single Score calls, in the order singlesFirst picks. It
// returns every score in call order, so two engines walked alike can be
// compared bit for bit.
func memoWalk(t testing.TB, en *Engine, moves []core.Assignment, singlesFirst bool) []float64 {
	t.Helper()
	inst := en.Instance()
	grid := fullGrid(inst)
	s := core.NewSchedule(inst)
	var got []float64
	score := func() {
		batch := func() {
			out := make([]float64, len(grid))
			if err := en.ScoreBatch(context.Background(), s, grid, out); err != nil {
				t.Fatal(err)
			}
			got = append(got, out...)
		}
		if !singlesFirst {
			batch()
		}
		for _, cd := range grid {
			got = append(got, en.Score(s, cd.Event, cd.Interval))
		}
		if singlesFirst {
			batch()
		}
	}
	score()
	for _, a := range moves {
		if !s.Valid(a.Event, a.Interval) {
			continue
		}
		if err := s.Assign(a.Event, a.Interval); err != nil {
			t.Fatal(err)
		}
		score()
	}
	got = append(got, en.Utility(s))
	return got
}

// sameBits fails on the first score two walks disagree on.
func sameBits(t testing.TB, label string, cold, warm []float64) {
	t.Helper()
	if len(cold) != len(warm) {
		t.Fatalf("%s: %d cold scores vs %d warm", label, len(cold), len(warm))
	}
	for i := range cold {
		if cold[i] != warm[i] {
			t.Fatalf("%s: score %d cold=%x warm=%x", label, i, cold[i], warm[i])
		}
	}
}

// deepMoves stacks up to three events on every interval, so memo rows with
// 2–3-event prefixes exist alongside the empty-prefix ones.
func deepMoves(inst *core.Instance) []core.Assignment {
	var moves []core.Assignment
	for e := 0; e < inst.NumEvents(); e++ {
		moves = append(moves, core.Assignment{Event: e, Interval: e % inst.NumIntervals()})
	}
	return moves
}

// TestPrefixMemoUndoGuard: an interval whose interest sum went through
// UnassignLast while staying non-empty carries float dust, so the engine
// must score it exactly as core.Scorer does — never from a clean prefix's
// memo row — and must leave no memo entry for it.
func TestPrefixMemoUndoGuard(t *testing.T) {
	inst := testInstance(31, 6, 2, 2, 700)
	// Pick two events that fit one interval together. A tiny interest under
	// a large one makes the undo lossy — (tiny + big) − big = 0 ≠ tiny — and
	// with no competing interest in the interval that dust decides whether
	// a user's share of the prefix is 1 or 0.
	const tv = 0
	dusty := core.NewSchedule(inst)
	var picked []int
	for e := 0; e < inst.NumEvents() && len(picked) < 2; e++ {
		if dusty.Valid(e, tv) {
			if err := dusty.Assign(e, tv); err != nil {
				t.Fatal(err)
			}
			picked = append(picked, e)
		}
	}
	if len(picked) != 2 {
		t.Fatal("instance cannot stack two events on one interval")
	}
	dusty = core.NewSchedule(inst)
	for u := 0; u < inst.NumUsers(); u++ {
		inst.SetInterest(u, picked[0], 1e-20)
		inst.SetInterest(u, picked[1], 1)
		for c, comp := range inst.Competing {
			if comp.Interval == tv {
				inst.SetCompetingInterest(u, c, 0)
			}
		}
	}
	en, err := New(inst, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	sc := core.NewScorer(inst)
	for _, e := range picked {
		if err := dusty.Assign(e, tv); err != nil {
			t.Fatal(err)
		}
	}
	if err := dusty.UnassignLast(); err != nil {
		t.Fatal(err)
	}
	prefix, exact := dusty.Prefix(tv)
	if exact || len(prefix) != 1 {
		t.Fatalf("Prefix after a non-emptying undo = %v exact=%v", prefix, exact)
	}
	clean := core.NewSchedule(inst)
	if err := clean.Assign(prefix[0], tv); err != nil {
		t.Fatal(err)
	}
	key := string(appendMemoKey(nil, tv, prefix))

	differ := false
	for e := 0; e < inst.NumEvents(); e++ {
		if got, want := en.Score(dusty, e, tv), sc.Score(dusty, e, tv); got != want {
			t.Fatalf("dusty Score(e%d) = %x, scorer %x", e, got, want)
		}
		differ = differ || sc.Score(dusty, e, tv) != sc.Score(clean, e, tv)
	}
	if !differ {
		t.Fatal("undo left no dust on this instance: the guard is not exercised")
	}
	if r := en.memo[key]; r != nil {
		t.Fatal("dusty prefix left a memo row")
	}
	// The clean prefix memoizes normally, and the dusty schedule still never
	// reads from it.
	for e := 0; e < inst.NumEvents(); e++ {
		if got, want := en.Score(clean, e, tv), sc.Score(clean, e, tv); got != want {
			t.Fatalf("clean Score(e%d) = %x, scorer %x", e, got, want)
		}
	}
	if en.memo[key] == nil {
		t.Fatal("clean prefix was not memoized")
	}
	out := make([]float64, inst.NumEvents())
	cands := make([]Candidate, inst.NumEvents())
	for e := range cands {
		cands[e] = Candidate{Event: e, Interval: tv}
	}
	if err := en.ScoreBatch(context.Background(), dusty, cands, out); err != nil {
		t.Fatal(err)
	}
	for e, v := range out {
		if want := sc.Score(dusty, e, tv); v != want {
			t.Fatalf("dusty batch e%d = %x, scorer %x", e, v, want)
		}
	}
	// Emptying the interval clears the flag.
	for dusty.Len() > 0 {
		if err := dusty.UnassignLast(); err != nil {
			t.Fatal(err)
		}
	}
	if _, exact := dusty.Prefix(tv); !exact {
		t.Fatal("an emptied interval stayed flagged")
	}
}

// TestPrefixMemoForeignSchedule: a schedule over another instance snapshot
// is scored through that snapshot's sums and never memoized.
func TestPrefixMemoForeignSchedule(t *testing.T) {
	inst := testInstance(32, 5, 2, 1, 300)
	en, err := New(inst, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	other := inst.Snapshot()
	other.SetInterest(4, 0, 0.25)
	s := core.NewSchedule(other)
	if err := s.Assign(0, 1); err != nil {
		t.Fatal(err)
	}
	want := core.NewScorer(inst).Score(s, 2, 1)
	if got := en.Score(s, 2, 1); got != want {
		t.Fatalf("foreign-schedule Score = %x, want %x", got, want)
	}
	if n := en.MemoCells(); n != 0 {
		t.Fatalf("foreign schedule left %d memo cells", n)
	}
}

// TestPrefixMemoBound: rows stop being added once they would exceed
// gridMaxCells; scores past the bound are still computed exactly.
func TestPrefixMemoBound(t *testing.T) {
	inst := testInstance(33, 6, 3, 1, 200)
	en, err := New(inst, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	// Pretend the memo is one row short of full.
	en.memoCells.Store(gridMaxCells - int64(inst.NumEvents()) + 1)
	s := core.NewSchedule(inst)
	ref := core.NewScorer(inst)
	if got, want := en.Score(s, 1, 0), ref.Score(s, 1, 0); got != want {
		t.Fatalf("Score past the bound = %x, want %x", got, want)
	}
	if len(en.memo) != 0 {
		t.Fatalf("a row was added past the bound (%d rows)", len(en.memo))
	}
	if st := en.Stat(); st.Evals != 1 || st.GridHits != 0 {
		t.Fatalf("past the bound: %+v", st)
	}
}

// TestPrefixMemoCarryRules: a warm successor keeps only the rows its
// predecessor used, drops rows of dirty intervals and rows whose prefix holds
// a dirty event, and clears dirty events' entries in the rows it keeps.
func TestPrefixMemoCarryRules(t *testing.T) {
	inst := testInstance(34, 6, 3, 2, 300)
	opts := core.ScorerOptions{}
	prev, err := New(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer prev.Close()
	// Rows: empty prefixes of t0..t2, [0]@t0, [1]@t1.
	s := core.NewSchedule(inst)
	for _, a := range []core.Assignment{{Event: 0, Interval: 0}, {Event: 1, Interval: 1}} {
		if err := s.Assign(a.Event, a.Interval); err != nil {
			t.Fatal(err)
		}
	}
	empty := core.NewSchedule(inst)
	grid := fullGrid(inst)
	out := make([]float64, len(grid))
	for _, sch := range []*core.Schedule{empty, s} {
		if err := prev.ScoreBatch(context.Background(), sch, grid, out); err != nil {
			t.Fatal(err)
		}
	}
	nE := int64(inst.NumEvents())
	if got := prev.MemoCells(); got != 5*nE {
		t.Fatalf("primed memo holds %d cells, want %d", got, 5*nE)
	}

	next := inst.Snapshot()
	next.SetInterest(3, 1, 0.4) // event 1: drops [1]@t1, clears column 1
	next.SetActivity(3, 2, 0.7) // interval 2: drops ∅@t2
	d := core.ScorerDelta{Events: []int{1}, ActIntervals: []int{2}}
	warm, err := NewFromPrevious(prev, next, opts, d)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	keys := map[string]bool{}
	for k := range warm.memo {
		keys[k] = true
	}
	want := []string{
		string(appendMemoKey(nil, 0, nil)),
		string(appendMemoKey(nil, 1, nil)),
		string(appendMemoKey(nil, 0, []int{0})),
	}
	if len(keys) != len(want) {
		t.Fatalf("carried %d rows, want %d", len(keys), len(want))
	}
	for _, k := range want {
		r := warm.memo[k]
		if r == nil {
			t.Fatalf("row %x not carried", k)
		}
		if _, ok := r.get(1); ok {
			t.Fatalf("row %x kept the dirty event's entry", k)
		}
		if _, ok := r.get(2); !ok {
			t.Fatalf("row %x lost a clean entry", k)
		}
		r.used.Store(false) // undo get's touch: this row is unused below
	}
	if got := warm.MemoCells(); got != 3*nE {
		t.Fatalf("warm memo holds %d cells, want %d", got, 3*nE)
	}

	// warm used none of its rows, so its own successor starts empty.
	again, err := NewFromPrevious(warm, next.Snapshot(), opts, core.ScorerDelta{})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if got := again.MemoCells(); got != 0 {
		t.Fatalf("unused rows carried on: %d cells", got)
	}
}

// FuzzPrefixMemo is the differential oracle of the prefix memo: a random
// instance (dense or sparse), a random assignment sequence and a random
// mutation with its ScorerDelta. An engine primed by walking the sequence on
// the old instance is carried warm across the mutation; walking the
// sequence again on the new instance, its single and batched scores at every
// prefix must equal a cold engine's bit for bit.
func FuzzPrefixMemo(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(3), uint8(2), uint16(200), false, []byte{0x00, 0x11, 0x22, 0x03, 0x14, 0x05}, uint8(0x0f), uint8(0))
	f.Add(uint64(9), uint8(8), uint8(2), uint8(3), uint16(350), true, []byte{0x10, 0x01, 0x12, 0x03, 0x04, 0x15, 0x06}, uint8(0x05), uint8(3))
	f.Add(uint64(4), uint8(3), uint8(1), uint8(0), uint16(40), false, []byte{0x00, 0x01, 0x02}, uint8(0x00), uint8(1))
	f.Add(uint64(77), uint8(9), uint8(4), uint8(1), uint16(120), true, []byte{0x27, 0x35, 0x08, 0x11}, uint8(0x1a), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, nE8, nT8, nC8 uint8, nU16 uint16, sparse bool, moveBytes []byte, mut uint8, w8 uint8) {
		nE := 1 + int(nE8)%10
		nT := 1 + int(nT8)%4
		nC := int(nC8) % 4
		nU := 1 + int(nU16)%400
		rep, density := core.RepDense, 0.8
		if sparse {
			rep, density = core.RepSparse, 0.15
		}
		inst := repInstance(t, seed, nE, nT, nC, nU, density, rep)
		if len(moveBytes) > 12 {
			moveBytes = moveBytes[:12]
		}
		moves := make([]core.Assignment, len(moveBytes))
		for i, b := range moveBytes {
			moves[i] = core.Assignment{Event: int(b&0x0f) % nE, Interval: int(b>>4) % nT}
		}
		opts := core.ScorerOptions{Workers: int(w8) % 4}
		prev, err := New(inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer prev.Close()
		memoWalk(t, prev, moves, mut&0x40 != 0)

		// The mutation: each bit of mut edits one part of the snapshot and
		// records exactly what it dirtied.
		next := inst.Snapshot()
		var d core.ScorerDelta
		u := int(seed % uint64(nU))
		if mut&0x01 != 0 {
			e := int(seed>>8) % nE
			next.SetInterest(u, e, 0.37)
			d.Events = append(d.Events, e)
		}
		if mut&0x02 != 0 && len(moves) > 0 {
			e := moves[0].Event // a prefix event: its rows must drop
			next.SetInterest((u+1)%nU, e, 0.61)
			d.Events = append(d.Events, e)
		}
		if mut&0x04 != 0 && nC > 0 {
			c := int(seed>>16) % nC
			next.SetCompetingInterest(u, c, 0.83)
			d.CompIntervals = append(d.CompIntervals, next.Competing[c].Interval)
		}
		if mut&0x08 != 0 {
			tv := int(seed>>24) % nT
			next.SetActivity(u, tv, 0.29)
			d.ActIntervals = append(d.ActIntervals, tv)
		}
		warm, err := NewFromPrevious(prev, next, opts, d)
		if err != nil {
			t.Fatal(err)
		}
		defer warm.Close()
		cold, err := New(next, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer cold.Close()
		singlesFirst := mut&0x80 != 0
		sameBits(t, "warm vs cold", memoWalk(t, cold, moves, singlesFirst), memoWalk(t, warm, moves, singlesFirst))
	})
}
