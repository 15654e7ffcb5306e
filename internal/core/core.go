// Package core implements the problem model of the Social Event Scheduling
// (SES) problem from "Attendance Maximization for Successful Social Event
// Planning" (Bikakis, Kalogeraki, Gunopulos — EDBT 2019).
//
// The package defines the entities of Section 2.1 — candidate events,
// candidate time intervals, competing events, users, the interest function µ
// and the social-activity probability σ — together with feasible schedules
// (location and resource constraints), the Luce-choice attendance probability
// ρ (Eq. 1), expected attendance ω (Eq. 2), total utility Ω (Eq. 3) and the
// marginal assignment score (Eq. 4) that every algorithm in internal/algo is
// built on.
//
// Interest values are stored event-major, either as a dense float32 matrix
// or — for the highly sparse interest structure of the real datasets — as
// per-event nonzero lists (see sparse.go); activity is a dense float32
// matrix. Every score computation is one pass over an event's users (the
// paper's "|U| computations per assignment score"), and the sparse loops
// reproduce the dense float64 accumulation bit for bit while touching only
// nonzeros.
package core

import (
	"errors"
	"fmt"
)

// Event is a candidate event e ∈ E awaiting a time interval.
type Event struct {
	// Name is a human-readable identifier used in reports; it has no
	// algorithmic meaning.
	Name string
	// Location identifies the place (stage, room, ...) hosting the event.
	// Two events with the same Location cannot be scheduled in the same
	// interval (the location constraint). Locations are opaque integers.
	Location int
	// Resources is ξ_e, the amount of the organizer's resources θ the
	// event consumes. The sum of ξ over the events assigned to one
	// interval must not exceed θ (the resources constraint).
	Resources float64
}

// Interval is a candidate time interval t ∈ T available for scheduling.
// Start and End are optional epoch seconds used by competing-event
// association helpers; the scheduling algorithms never read them.
type Interval struct {
	Name  string
	Start int64
	End   int64
}

// Competing is a competing event c ∈ C: an event already scheduled by a
// third party that drains attendance from candidate events placed in the
// same interval.
type Competing struct {
	Name string
	// Interval is the index in Instance.Intervals this competing event is
	// associated with (t_c in the paper).
	Interval int
	Start    int64
	End      int64
}

// Instance is a complete SES problem instance: the tuple (T, C, E, U, θ, µ, σ).
//
// The interest matrix µ covers E ∪ C: for user u, µ(u, e) is the affinity for
// candidate event e and CompetingInterest(u, c) the affinity for competing
// event c. All interest and activity values must lie in [0, 1].
//
// Storage layout: interest is event-major (one contiguous column of |U|
// values per event, candidate events first, then competing events) and
// activity is interval-major. Every score computation scans all users of
// one event and one interval (Eq. 1-4), so this layout turns the hot loop
// into sequential reads — measured ~2-3× faster than the user-major layout
// and, crucially, independent of the order algorithms enumerate
// (event, interval) pairs.
type Instance struct {
	Events    []Event
	Intervals []Interval
	Competing []Competing

	// Theta is θ, the organizer's available resources per interval.
	Theta float64

	numUsers int
	// interest holds |E|+|C| columns of numUsers values each:
	// interest[h*numUsers + u] is µ(u, h). nil when the instance is sparse.
	interest []float32
	// sparse, when non-nil, replaces the dense interest matrix with
	// per-column nonzero lists (see sparse.go); interest is then nil.
	sparse []SparseCol
	// activity holds |T| columns of numUsers values each:
	// activity[t*numUsers + u] is σ(u, t). Activity stays dense in both
	// representations: |T| is small (3k/2), so the σ matrix is a sliver of
	// the dense interest footprint, and every Eq. 4 pass reads it anyway.
	activity []float32

	// sharedInterest / sharedActivity mark the matrices as shared with a
	// copy-on-write Snapshot; the next mutation copies before writing.
	sharedInterest bool
	sharedActivity bool
}

// NewInstance allocates an instance with zeroed interest and activity
// matrices. Callers fill them with SetInterest / SetCompetingInterest /
// SetActivity or the bulk row accessors.
func NewInstance(events []Event, intervals []Interval, competing []Competing, numUsers int, theta float64) (*Instance, error) {
	if err := validateShape(events, intervals, competing, numUsers, theta); err != nil {
		return nil, err
	}
	return &Instance{
		Events:    events,
		Intervals: intervals,
		Competing: competing,
		Theta:     theta,
		numUsers:  numUsers,
		interest:  make([]float32, numUsers*(len(events)+len(competing))),
		activity:  make([]float32, numUsers*len(intervals)),
	}, nil
}

// validateShape checks the structural constructor arguments shared by the
// dense and sparse constructors and the Builder.
func validateShape(events []Event, intervals []Interval, competing []Competing, numUsers int, theta float64) error {
	if len(events) == 0 {
		return errors.New("core: instance needs at least one candidate event")
	}
	if len(intervals) == 0 {
		return errors.New("core: instance needs at least one time interval")
	}
	if numUsers <= 0 {
		return errors.New("core: instance needs at least one user")
	}
	if theta < 0 {
		return fmt.Errorf("core: negative available resources θ = %v", theta)
	}
	for i, c := range competing {
		if c.Interval < 0 || c.Interval >= len(intervals) {
			return fmt.Errorf("core: competing event %d references interval %d, have %d intervals", i, c.Interval, len(intervals))
		}
	}
	for i, e := range events {
		if e.Resources < 0 {
			return fmt.Errorf("core: event %d has negative required resources ξ = %v", i, e.Resources)
		}
	}
	return nil
}

// NumUsers returns |U|.
func (in *Instance) NumUsers() int { return in.numUsers }

// NumEvents returns |E|.
func (in *Instance) NumEvents() int { return len(in.Events) }

// NumIntervals returns |T|.
func (in *Instance) NumIntervals() int { return len(in.Intervals) }

// NumCompeting returns |C|.
func (in *Instance) NumCompeting() int { return len(in.Competing) }

// interestCol returns the contiguous user column of interest value h
// (candidate event index, or len(Events)+competing index). Dense instances
// only; sparse callers iterate in.sparse[h] instead.
func (in *Instance) interestCol(h int) []float32 {
	return in.interest[h*in.numUsers : (h+1)*in.numUsers]
}

// interestAt returns µ(u, h) in either representation.
func (in *Instance) interestAt(user, h int) float64 {
	if in.sparse != nil {
		return float64(in.sparse[h].get(user))
	}
	return float64(in.interest[h*in.numUsers+user])
}

// activityCol returns the contiguous user column of interval t.
func (in *Instance) activityCol(t int) []float32 {
	return in.activity[t*in.numUsers : (t+1)*in.numUsers]
}

// Interest returns µ(u, e) for candidate event e. On a sparse instance the
// lookup is a binary search of the event's nonzero list.
func (in *Instance) Interest(user, event int) float64 {
	return in.interestAt(user, event)
}

// CompetingInterest returns µ(u, c) for competing event c.
func (in *Instance) CompetingInterest(user, comp int) float64 {
	return in.interestAt(user, len(in.Events)+comp)
}

// Activity returns σ(u, t), the social activity probability of user u
// during interval t.
func (in *Instance) Activity(user, interval int) float64 {
	return float64(in.activity[interval*in.numUsers+user])
}

// SetInterest sets µ(u, e) for candidate event e. Values outside [0,1] are an
// instance-construction bug and are rejected by Validate, not here, to keep
// the hot generator path cheap (the only per-call check is the predictable
// copy-on-write ownership test).
func (in *Instance) SetInterest(user, event int, v float64) {
	in.setInterestAt(user, event, float32(v))
}

// SetCompetingInterest sets µ(u, c) for competing event c.
func (in *Instance) SetCompetingInterest(user, comp int, v float64) {
	in.setInterestAt(user, len(in.Events)+comp, float32(v))
}

// setInterestAt writes µ(u, h) in either representation. Sparse columns never
// store explicit zeros: a zero write removes the entry.
func (in *Instance) setInterestAt(user, h int, v float32) {
	in.ownInterest()
	if in.sparse != nil {
		in.sparse[h].set(user, v)
		return
	}
	in.interest[h*in.numUsers+user] = v
}

// SetActivity sets σ(u, t).
func (in *Instance) SetActivity(user, interval int, v float64) {
	in.ownActivity()
	in.activity[interval*in.numUsers+user] = float32(v)
}

// SetInterestRow scatters user u's full interest row (|E| candidate-event
// affinities followed by |C| competing-event affinities) into the
// event-major storage. Generators build per-user rows and hand them over
// with one call.
func (in *Instance) SetInterestRow(user int, row []float32) {
	if len(row) != len(in.Events)+len(in.Competing) {
		panic(fmt.Sprintf("core: interest row has %d values, want %d", len(row), len(in.Events)+len(in.Competing)))
	}
	in.ownInterest()
	if in.sparse != nil {
		for h, v := range row {
			in.sparse[h].set(user, v)
		}
		return
	}
	for h, v := range row {
		in.interest[h*in.numUsers+user] = v
	}
}

// SetActivityRow scatters user u's per-interval activity row.
func (in *Instance) SetActivityRow(user int, row []float32) {
	if len(row) != len(in.Intervals) {
		panic(fmt.Sprintf("core: activity row has %d values, want %d", len(row), len(in.Intervals)))
	}
	in.ownActivity()
	for t, v := range row {
		in.activity[t*in.numUsers+user] = v
	}
}

// CopyInterestRow gathers user u's interest row into dst (length
// |E|+|C|), for serialization.
func (in *Instance) CopyInterestRow(user int, dst []float32) {
	if in.sparse != nil {
		for h := range dst {
			dst[h] = in.sparse[h].get(user)
		}
		return
	}
	for h := range dst {
		dst[h] = in.interest[h*in.numUsers+user]
	}
}

// CopyActivityRow gathers user u's activity row into dst (length |T|).
func (in *Instance) CopyActivityRow(user int, dst []float32) {
	for t := range dst {
		dst[t] = in.activity[t*in.numUsers+user]
	}
}

// CompetingAt returns the indices of the competing events associated with
// interval t (C_t in the paper).
func (in *Instance) CompetingAt(interval int) []int {
	var out []int
	for i, c := range in.Competing {
		if c.Interval == interval {
			out = append(out, i)
		}
	}
	return out
}

// Validate checks the structural invariants of the instance: matrix values in
// [0, 1], competing events bound to existing intervals, non-negative resource
// requirements, and that at least one event can fit into an interval's
// resource budget (otherwise every schedule is empty and the instance is
// almost certainly a construction mistake).
func (in *Instance) Validate() error {
	// The in-range check is written as a negated conjunction so NaN — for
	// which both v < 0 and v > 1 are false — fails it too: one NaN cell
	// would otherwise poison every utility downstream.
	if in.sparse != nil {
		for h := range in.sparse {
			if err := in.sparse[h].validate(h, in.numUsers); err != nil {
				return err
			}
			for i, v := range in.sparse[h].Mu {
				if !(v >= 0 && v <= 1) {
					return fmt.Errorf("core: interest value %v for user %d, column %d out of [0,1]", v, in.sparse[h].Users[i], h)
				}
			}
		}
	}
	for i, v := range in.interest {
		if !(v >= 0 && v <= 1) {
			return fmt.Errorf("core: interest value %v for user %d out of [0,1]", v, i%in.numUsers)
		}
	}
	for i, v := range in.activity {
		if !(v >= 0 && v <= 1) {
			return fmt.Errorf("core: activity value %v for user %d out of [0,1]", v, i%in.numUsers)
		}
	}
	return in.ValidateStructure()
}

// ValidateStructure checks only the non-matrix invariants of Validate:
// competing events bound to existing intervals, non-negative resource
// requirements, and at least one event fitting the θ budget. Decode paths
// that have already validated every matrix cell (seio.ReadInstance names the
// offending cell itself) call this instead of Validate to avoid a redundant
// full-matrix re-scan on million-user uploads.
func (in *Instance) ValidateStructure() error {
	anyFits := false
	for _, e := range in.Events {
		if e.Resources < 0 {
			return fmt.Errorf("core: event %q has negative required resources", e.Name)
		}
		if e.Resources <= in.Theta {
			anyFits = true
		}
	}
	if !anyFits {
		return fmt.Errorf("core: no candidate event fits within the available resources θ = %v", in.Theta)
	}
	for i, c := range in.Competing {
		if c.Interval < 0 || c.Interval >= len(in.Intervals) {
			return fmt.Errorf("core: competing event %d references interval %d, have %d intervals", i, c.Interval, len(in.Intervals))
		}
	}
	return nil
}

// Overlaps reports whether the half-open time spans [aStart, aEnd) and
// [bStart, bEnd) intersect.
func Overlaps(aStart, aEnd, bStart, bEnd int64) bool {
	return aStart < bEnd && bStart < aEnd
}

// AssociateCompeting assigns each competing event to the candidate interval
// its time span overlaps the most, mirroring how the paper maps third-party
// events onto candidate intervals (a user cannot attend both a competing
// event and a candidate event in an overlapping interval). Competing events
// that overlap no interval are dropped. The function returns the retained
// competing events with their Interval fields set.
func AssociateCompeting(intervals []Interval, competing []Competing) []Competing {
	var out []Competing
	for _, c := range competing {
		best, bestOverlap := -1, int64(0)
		for t, iv := range intervals {
			if !Overlaps(c.Start, c.End, iv.Start, iv.End) {
				continue
			}
			lo, hi := max64(c.Start, iv.Start), min64(c.End, iv.End)
			if hi-lo > bestOverlap {
				bestOverlap = hi - lo
				best = t
			}
		}
		if best >= 0 {
			c.Interval = best
			out = append(out, c)
		}
	}
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
