package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Assignment α_e^t schedules candidate event Event at interval Interval.
// Both fields are indices into the instance's Events and Intervals slices.
type Assignment struct {
	Event    int
	Interval int
}

// Schedule is a feasible partial schedule S: a set of assignments with at
// most one interval per event, respecting the location and resources
// constraints of Section 2.1.
//
// Besides the assignment set, a Schedule maintains the per-interval,
// per-user sum of interests of the events assigned there (Σ_{p∈E_t(S)} µ_{u,p}).
// That running sum is the denominator state that lets Eq. 4 scores be
// computed in O(|U|) — the cost model the paper's computation counts assume.
type Schedule struct {
	inst *Instance

	// assignedTo[e] is the interval event e is assigned to, or -1.
	assignedTo []int
	// byInterval[t] lists the events assigned to t in assignment order.
	byInterval [][]int
	// usedResources[t] is Σ ξ_e over e ∈ E_t(S).
	usedResources []float64
	// locations[t] is the set of locations occupied in t.
	locations []map[int]bool
	// assignedSum[t][u] is Σ_{p∈E_t(S)} µ(u, p); nil until t receives its
	// first event, so empty intervals cost no memory.
	assignedSum [][]float64
	// undone[t] marks an interval whose assignedSum went through
	// UnassignLast while staying non-empty: subtraction can leave float
	// dust, so the sum is no longer the in-order sum of its prefix.
	undone []bool
	// order records assignments in selection order, which the INC ≡ ALG
	// and HOR-I ≡ HOR equivalence tests compare.
	order []Assignment
}

// NewSchedule returns an empty schedule over the instance.
func NewSchedule(inst *Instance) *Schedule {
	nT := inst.NumIntervals()
	s := &Schedule{
		inst:          inst,
		assignedTo:    make([]int, inst.NumEvents()),
		byInterval:    make([][]int, nT),
		usedResources: make([]float64, nT),
		locations:     make([]map[int]bool, nT),
		assignedSum:   make([][]float64, nT),
		undone:        make([]bool, nT),
	}
	for i := range s.assignedTo {
		s.assignedTo[i] = -1
	}
	return s
}

// Instance returns the instance this schedule is defined over.
func (s *Schedule) Instance() *Instance { return s.inst }

// Len returns |S|, the number of assignments.
func (s *Schedule) Len() int { return len(s.order) }

// Assignments returns the assignments in selection order. The returned slice
// aliases schedule state; callers must not modify it.
func (s *Schedule) Assignments() []Assignment { return s.order }

// AssignedInterval returns the interval event e is assigned to and true, or
// (-1, false) if e is unassigned.
func (s *Schedule) AssignedInterval(e int) (int, bool) {
	t := s.assignedTo[e]
	return t, t >= 0
}

// EventsAt returns the events assigned to interval t in assignment order.
// The returned slice aliases schedule state.
func (s *Schedule) EventsAt(t int) []int { return s.byInterval[t] }

// Prefix returns the events assigned to interval t in assignment order and
// whether t's per-user interest sum is exactly the in-order sum of their
// interest columns. Every Eq. 4 score at t is then a pure function of the
// instance and this prefix, which is what lets the scoring engine memoize
// scores by prefix. exact is false once UnassignLast has subtracted from t
// while leaving it non-empty, until t empties again. The returned slice
// aliases schedule state.
func (s *Schedule) Prefix(t int) (events []int, exact bool) {
	return s.byInterval[t], !s.undone[t]
}

// UsedResources returns Σ ξ_e over the events assigned to interval t.
func (s *Schedule) UsedResources(t int) float64 { return s.usedResources[t] }

// Feasible reports whether adding event e to interval t would keep the
// schedule feasible: e's location is free in t and the resources constraint
// Σξ ≤ θ still holds.
func (s *Schedule) Feasible(e, t int) bool {
	ev := s.inst.Events[e]
	if s.locations[t] != nil && s.locations[t][ev.Location] {
		return false
	}
	return s.usedResources[t]+ev.Resources <= s.inst.Theta
}

// Valid reports whether α_e^t is a valid assignment: feasible and e not yet
// scheduled (the paper's definition of valid).
func (s *Schedule) Valid(e, t int) bool {
	return s.assignedTo[e] < 0 && s.Feasible(e, t)
}

// Assign adds α_e^t to the schedule. It returns an error if the assignment
// is not valid.
func (s *Schedule) Assign(e, t int) error {
	if e < 0 || e >= s.inst.NumEvents() {
		return fmt.Errorf("core: event index %d out of range", e)
	}
	if t < 0 || t >= s.inst.NumIntervals() {
		return fmt.Errorf("core: interval index %d out of range", t)
	}
	if s.assignedTo[e] >= 0 {
		return fmt.Errorf("core: event %d already assigned to interval %d", e, s.assignedTo[e])
	}
	if !s.Feasible(e, t) {
		return fmt.Errorf("core: assigning event %d to interval %d violates a constraint", e, t)
	}
	ev := s.inst.Events[e]
	s.assignedTo[e] = t
	s.byInterval[t] = append(s.byInterval[t], e)
	s.usedResources[t] += ev.Resources
	if s.locations[t] == nil {
		s.locations[t] = make(map[int]bool, 4)
	}
	s.locations[t][ev.Location] = true
	sum := s.assignedSum[t]
	if sum == nil {
		sum = make([]float64, s.inst.NumUsers())
		s.assignedSum[t] = sum
	}
	s.inst.addInterestColInto(e, sum)
	s.order = append(s.order, Assignment{Event: e, Interval: t})
	return nil
}

// assignedInterestSum returns the per-user Σ_{p∈E_t(S)} µ(u, p) vector for
// interval t, or nil if t is empty (treated as all zeros).
func (s *Schedule) assignedInterestSum(t int) []float64 { return s.assignedSum[t] }

// UnassignLast removes the most recently added assignment, restoring the
// previous schedule state. Only stack-discipline undo is supported: it keeps
// every incremental structure O(1)-restorable and is exactly what
// backtracking searches (internal/opt) need. It returns an error on an
// empty schedule.
//
// The per-user interest sums are restored by subtraction, which can leave
// float dust of one ulp per undo; exact searches tolerate this, and
// algorithms never undo.
func (s *Schedule) UnassignLast() error {
	if len(s.order) == 0 {
		return errors.New("core: UnassignLast on an empty schedule")
	}
	a := s.order[len(s.order)-1]
	s.order = s.order[:len(s.order)-1]
	e, t := a.Event, a.Interval
	s.assignedTo[e] = -1
	evs := s.byInterval[t]
	s.byInterval[t] = evs[:len(evs)-1]
	ev := s.inst.Events[e]
	s.usedResources[t] -= ev.Resources
	delete(s.locations[t], ev.Location)
	s.inst.subInterestColInto(e, s.assignedSum[t])
	if len(s.byInterval[t]) == 0 {
		// Drop the sum entirely so an emptied interval is exactly an
		// untouched interval (no float dust in later scores).
		s.assignedSum[t] = nil
		s.undone[t] = false
	} else {
		s.undone[t] = true
	}
	return nil
}

// Clone returns a deep copy of the schedule. Cloning is used by what-if
// analyses (e.g. the Monte-Carlo simulator's ablation runs); algorithms build
// schedules incrementally and never clone on their hot paths.
func (s *Schedule) Clone() *Schedule {
	c := NewSchedule(s.inst)
	for _, a := range s.order {
		if err := c.Assign(a.Event, a.Interval); err != nil {
			// The source schedule was feasible, so replaying it must be.
			panic("core: clone replay failed: " + err.Error())
		}
	}
	return c
}

// CheckFeasible verifies the schedule invariants from first principles:
// every event at most once, no location clash inside an interval, and
// resource sums within θ. It exists so tests can validate schedules without
// trusting the incremental bookkeeping.
func (s *Schedule) CheckFeasible() error {
	seen := make(map[int]bool)
	for _, a := range s.order {
		if seen[a.Event] {
			return fmt.Errorf("core: event %d assigned twice", a.Event)
		}
		seen[a.Event] = true
	}
	for t := range s.inst.Intervals {
		locs := make(map[int]bool)
		res := 0.0
		for _, e := range s.byInterval[t] {
			loc := s.inst.Events[e].Location
			if locs[loc] {
				return fmt.Errorf("core: interval %d hosts two events at location %d", t, loc)
			}
			locs[loc] = true
			res += s.inst.Events[e].Resources
		}
		if res > s.inst.Theta+1e-9 {
			return fmt.Errorf("core: interval %d uses %v resources, θ = %v", t, res, s.inst.Theta)
		}
	}
	return nil
}

// String renders the schedule compactly for logs and examples, e.g.
// "{e2@t0, e5@t3}" using instance names where available.
func (s *Schedule) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, a := range s.order {
		if i > 0 {
			b.WriteString(", ")
		}
		en := s.inst.Events[a.Event].Name
		if en == "" {
			en = fmt.Sprintf("e%d", a.Event)
		}
		tn := s.inst.Intervals[a.Interval].Name
		if tn == "" {
			tn = fmt.Sprintf("t%d", a.Interval)
		}
		b.WriteString(en)
		b.WriteByte('@')
		b.WriteString(tn)
	}
	b.WriteByte('}')
	return b.String()
}

// SortedAssignments returns the assignments sorted by (interval, event),
// a canonical order useful for comparing schedules irrespective of the
// selection sequence.
func (s *Schedule) SortedAssignments() []Assignment {
	out := make([]Assignment, len(s.order))
	copy(out, s.order)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Interval != out[j].Interval {
			return out[i].Interval < out[j].Interval
		}
		return out[i].Event < out[j].Event
	})
	return out
}
