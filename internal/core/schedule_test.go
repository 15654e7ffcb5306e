package core

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/randx"
)

func TestNewInstanceValidation(t *testing.T) {
	ev := []Event{{Location: 0, Resources: 1}}
	iv := []Interval{{}}
	cases := []struct {
		name string
		fn   func() (*Instance, error)
	}{
		{"no events", func() (*Instance, error) { return NewInstance(nil, iv, nil, 1, 1) }},
		{"no intervals", func() (*Instance, error) { return NewInstance(ev, nil, nil, 1, 1) }},
		{"no users", func() (*Instance, error) { return NewInstance(ev, iv, nil, 0, 1) }},
		{"negative theta", func() (*Instance, error) { return NewInstance(ev, iv, nil, 1, -1) }},
		{"bad competing interval", func() (*Instance, error) {
			return NewInstance(ev, iv, []Competing{{Interval: 5}}, 1, 1)
		}},
		{"negative event resources", func() (*Instance, error) {
			return NewInstance([]Event{{Resources: -1}}, iv, nil, 1, 1)
		}},
	}
	for _, c := range cases {
		if _, err := c.fn(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestValidateRejectsOutOfRangeValues(t *testing.T) {
	inst := RunningExample()
	inst.SetInterest(0, 0, 1.5)
	if err := inst.Validate(); err == nil || !strings.Contains(err.Error(), "interest") {
		t.Errorf("expected interest range error, got %v", err)
	}
	inst = RunningExample()
	inst.SetActivity(0, 0, -0.1)
	if err := inst.Validate(); err == nil || !strings.Contains(err.Error(), "activity") {
		t.Errorf("expected activity range error, got %v", err)
	}
}

func TestValidateRejectsOversizedEvents(t *testing.T) {
	inst, err := NewInstance([]Event{{Resources: 100}}, []Interval{{}}, nil, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Validate(); err == nil {
		t.Error("expected error: no event fits θ")
	}
}

func TestAssignLocationConstraint(t *testing.T) {
	inst := RunningExample()
	s := NewSchedule(inst)
	mustAssign(t, s, 0, 0) // e1 → t1 (Stage 1)
	if err := s.Assign(1, 0); err == nil {
		t.Fatal("e2 (Stage 1) must not co-locate with e1 in t1")
	}
	mustAssign(t, s, 1, 1) // e2 → t2 fine
}

func TestAssignResourceConstraint(t *testing.T) {
	events := []Event{
		{Location: 0, Resources: 3},
		{Location: 1, Resources: 3},
		{Location: 2, Resources: 3},
	}
	inst, err := NewInstance(events, []Interval{{}, {}}, nil, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSchedule(inst)
	mustAssign(t, s, 0, 0)
	mustAssign(t, s, 1, 0)
	if s.Feasible(2, 0) {
		t.Fatal("interval 0 is at capacity (6/6); event of size 3 must not fit")
	}
	if err := s.Assign(2, 0); err == nil {
		t.Fatal("resource overflow not rejected")
	}
	mustAssign(t, s, 2, 1)
	if got := s.UsedResources(0); got != 6 {
		t.Fatalf("UsedResources(0) = %v, want 6", got)
	}
}

func TestAssignDoubleAssignmentRejected(t *testing.T) {
	inst := RunningExample()
	s := NewSchedule(inst)
	mustAssign(t, s, 0, 0)
	if err := s.Assign(0, 1); err == nil {
		t.Fatal("event assigned twice")
	}
}

func TestAssignIndexBounds(t *testing.T) {
	inst := RunningExample()
	s := NewSchedule(inst)
	if err := s.Assign(-1, 0); err == nil {
		t.Error("negative event accepted")
	}
	if err := s.Assign(0, 99); err == nil {
		t.Error("out-of-range interval accepted")
	}
}

func TestAssignedIntervalAndEventsAt(t *testing.T) {
	inst := RunningExample()
	s := NewSchedule(inst)
	if _, ok := s.AssignedInterval(0); ok {
		t.Fatal("fresh schedule claims assignment")
	}
	mustAssign(t, s, 3, 1)
	mustAssign(t, s, 1, 1)
	if iv, ok := s.AssignedInterval(3); !ok || iv != 1 {
		t.Fatalf("AssignedInterval(e4) = %d,%v", iv, ok)
	}
	evs := s.EventsAt(1)
	if len(evs) != 2 || evs[0] != 3 || evs[1] != 1 {
		t.Fatalf("EventsAt(t2) = %v, want [3 1]", evs)
	}
	if len(s.EventsAt(0)) != 0 {
		t.Fatal("t1 should be empty")
	}
}

// TestPrefixExactness: Prefix reports an interval's events in assignment
// order, exact until an undo subtracts from it while leaving it non-empty,
// and exact again once the interval empties or the schedule is cloned.
func TestPrefixExactness(t *testing.T) {
	inst := RunningExample()
	s := NewSchedule(inst)
	mustAssign(t, s, 3, 1)
	mustAssign(t, s, 1, 1)
	if p, exact := s.Prefix(1); !exact || len(p) != 2 || p[0] != 3 || p[1] != 1 {
		t.Fatalf("Prefix(t2) = %v exact=%v, want [3 1] exact", p, exact)
	}
	if err := s.UnassignLast(); err != nil {
		t.Fatal(err)
	}
	if p, exact := s.Prefix(1); exact || len(p) != 1 {
		t.Fatalf("after a non-emptying undo Prefix(t2) = %v exact=%v", p, exact)
	}
	if _, exact := s.Clone().Prefix(1); !exact {
		t.Fatal("a clone replays its assignments, so its prefixes are exact")
	}
	mustAssign(t, s, 0, 0)
	if _, exact := s.Prefix(0); !exact {
		t.Fatal("an undo in t2 flagged t1")
	}
	if _, exact := s.Prefix(1); exact {
		t.Fatal("assigning elsewhere cleared t2's flag")
	}
	for s.Len() > 0 {
		if err := s.UnassignLast(); err != nil {
			t.Fatal(err)
		}
	}
	if _, exact := s.Prefix(1); !exact {
		t.Fatal("an emptied interval stayed flagged")
	}
}

func TestCloneIsDeepAndEquivalent(t *testing.T) {
	inst := RunningExample()
	s := NewSchedule(inst)
	mustAssign(t, s, 3, 1)
	mustAssign(t, s, 0, 0)
	c := s.Clone()
	mustAssign(t, c, 1, 1)
	if s.Len() != 2 || c.Len() != 3 {
		t.Fatalf("clone not independent: lens %d, %d", s.Len(), c.Len())
	}
	sc := NewScorer(inst)
	// Utilities diverge because the clone holds one more event.
	if sc.Utility(s) >= sc.Utility(c)+1e-12 && sc.Utility(s) != sc.Utility(c) {
		t.Fatal("unexpected utility relation after clone")
	}
}

func TestCheckFeasibleCatchesCorruption(t *testing.T) {
	inst := RunningExample()
	s := NewSchedule(inst)
	mustAssign(t, s, 0, 0)
	// Corrupt the internal state to simulate a bookkeeping bug.
	s.byInterval[0] = append(s.byInterval[0], 1) // e2 shares Stage 1
	if err := s.CheckFeasible(); err == nil {
		t.Fatal("CheckFeasible missed a location clash")
	}
	s = NewSchedule(inst)
	mustAssign(t, s, 0, 0)
	s.order = append(s.order, Assignment{Event: 0, Interval: 1})
	if err := s.CheckFeasible(); err == nil {
		t.Fatal("CheckFeasible missed a duplicate event")
	}
}

func TestScheduleString(t *testing.T) {
	inst := RunningExample()
	s := NewSchedule(inst)
	mustAssign(t, s, 3, 1)
	mustAssign(t, s, 0, 0)
	if got := s.String(); got != "{e4@t2, e1@t1}" {
		t.Fatalf("String() = %q", got)
	}
}

func TestSortedAssignments(t *testing.T) {
	inst := RunningExample()
	s := NewSchedule(inst)
	mustAssign(t, s, 3, 1)
	mustAssign(t, s, 0, 0)
	mustAssign(t, s, 1, 1)
	got := s.SortedAssignments()
	want := []Assignment{{0, 0}, {3, 1}, {1, 1}}
	// Sorted by (interval, event): (0,0), (1,1), (1,3).
	want = []Assignment{{Event: 0, Interval: 0}, {Event: 1, Interval: 1}, {Event: 3, Interval: 1}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedAssignments = %v, want %v", got, want)
		}
	}
}

// Property: any sequence of Assign calls that succeed yields a schedule that
// passes CheckFeasible, and the running assignedSum matches a from-scratch
// recomputation.
func TestAssignMaintainsInvariants(t *testing.T) {
	check := func(seed uint64) bool {
		inst := randomInstance(seed, 10, 4, 3, 15)
		s := NewSchedule(inst)
		r := randx.New(seed)
		for i := 0; i < 12; i++ {
			e, tv := r.Intn(10), r.Intn(4)
			if s.Valid(e, tv) {
				if err := s.Assign(e, tv); err != nil {
					return false
				}
			}
		}
		if err := s.CheckFeasible(); err != nil {
			return false
		}
		// Recompute assignedSum from scratch and compare.
		for tv := 0; tv < inst.NumIntervals(); tv++ {
			sum := s.assignedInterestSum(tv)
			for u := 0; u < inst.NumUsers(); u++ {
				want := 0.0
				for _, e := range s.EventsAt(tv) {
					want += inst.Interest(u, e)
				}
				got := 0.0
				if sum != nil {
					got = sum[u]
				}
				if diff := want - got; diff > 1e-9 || diff < -1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlaps(t *testing.T) {
	cases := []struct {
		a0, a1, b0, b1 int64
		want           bool
	}{
		{0, 10, 5, 15, true},
		{0, 10, 10, 20, false}, // half-open: touching ends don't overlap
		{5, 15, 0, 10, true},
		{0, 5, 6, 10, false},
		{0, 100, 20, 30, true},
	}
	for _, c := range cases {
		if got := Overlaps(c.a0, c.a1, c.b0, c.b1); got != c.want {
			t.Errorf("Overlaps(%d,%d,%d,%d) = %v", c.a0, c.a1, c.b0, c.b1, got)
		}
	}
}

func TestAssociateCompeting(t *testing.T) {
	intervals := []Interval{
		{Name: "fri", Start: 100, End: 200},
		{Name: "sat", Start: 300, End: 400},
	}
	competing := []Competing{
		{Name: "c1", Start: 50, End: 150},  // overlaps fri by 50
		{Name: "c2", Start: 350, End: 500}, // overlaps sat by 50
		{Name: "c3", Start: 190, End: 320}, // overlaps fri by 10, sat by 20 → sat
		{Name: "c4", Start: 600, End: 700}, // overlaps nothing → dropped
		{Name: "c5", Start: 120, End: 390}, // fri by 80, sat by 90 → sat
	}
	got := AssociateCompeting(intervals, competing)
	if len(got) != 4 {
		t.Fatalf("retained %d competing events, want 4", len(got))
	}
	want := map[string]int{"c1": 0, "c2": 1, "c3": 1, "c5": 1}
	for _, c := range got {
		if want[c.Name] != c.Interval {
			t.Errorf("%s associated with interval %d, want %d", c.Name, c.Interval, want[c.Name])
		}
	}
}

func TestCompetingAt(t *testing.T) {
	inst := RunningExample()
	if got := inst.CompetingAt(0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("CompetingAt(t1) = %v", got)
	}
	if got := inst.CompetingAt(1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("CompetingAt(t2) = %v", got)
	}
}
