// Package ses is the public API of this reproduction of "Attendance
// Maximization for Successful Social Event Planning" (Bikakis, Kalogeraki,
// Gunopulos — EDBT 2019).
//
// The Social Event Scheduling (SES) problem assigns k candidate events to
// candidate time intervals so that the expected number of attendees is
// maximized, under location and resource constraints and in the presence of
// competing third-party events. The package exposes the problem model, the
// paper's four scheduling algorithms (the prior greedy ALG and the faster
// INC, HOR and HOR-I) plus the TOP/RAND baselines, and the workload
// generators used by the evaluation.
//
// Quick start:
//
//	inst, _ := ses.NewInstance(events, intervals, competing, numUsers, theta)
//	// ... fill interest/activity via inst.SetInterest / inst.SetActivity ...
//	res, err := ses.Solve(inst, 100, ses.HORI)
//	fmt.Println(res.Utility, res.Schedule)
//
// See examples/ for complete programs and internal/exp for the experiment
// harness that regenerates every figure of the paper.
package ses

import (
	"fmt"
	"io"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/seio"
	"repro/internal/sim"
)

// Core model types, re-exported from the engine.
type (
	// Event is a candidate event: a location and a resource requirement.
	Event = core.Event
	// Interval is a candidate time interval events can be assigned to.
	Interval = core.Interval
	// Competing is a third-party event draining attendance from one interval.
	Competing = core.Competing
	// Instance is a full SES problem instance (T, C, E, U, θ, µ, σ).
	Instance = core.Instance
	// Schedule is a feasible set of event→interval assignments.
	Schedule = core.Schedule
	// Assignment is a single event→interval pair.
	Assignment = core.Assignment
	// Scorer evaluates attendance probabilities, expected attendance and
	// utility (Eq. 1-4 of the paper).
	Scorer = core.Scorer
	// Result carries a schedule with its utility and work counters.
	Result = algo.Result
	// Counters are the work metrics (score computations, assignments examined).
	Counters = algo.Counters
	// Scheduler is the common interface of all algorithms.
	Scheduler = algo.Scheduler
)

// Algorithm names the scheduling algorithm to use.
type Algorithm string

// The algorithms of the paper (Section 3) and the evaluation's baselines
// (Section 4.1).
const (
	// ALG is the prior greedy algorithm (ICDE 2018), the baseline the
	// paper improves on.
	ALG Algorithm = "ALG"
	// INC is the Incremental Updating algorithm: same solution as ALG
	// with far fewer score computations.
	INC Algorithm = "INC"
	// HOR is the Horizontal Assignment algorithm: selects one event per
	// interval per iteration, skipping mid-iteration updates.
	HOR Algorithm = "HOR"
	// HORI is HOR with incremental updating — the fastest method overall.
	HORI Algorithm = "HOR-I"
	// TOP scores everything once and takes the global top-k (baseline).
	TOP Algorithm = "TOP"
	// RAND assigns valid pairs at random (baseline).
	RAND Algorithm = "RAND"
)

// Algorithms lists all algorithms in the paper's plot order.
func Algorithms() []Algorithm {
	var out []Algorithm
	for _, n := range algo.Names() {
		out = append(out, Algorithm(n))
	}
	return out
}

// NewInstance allocates an SES instance with zeroed interest and activity
// matrices; fill them with the Set* methods or the bulk row accessors.
func NewInstance(events []Event, intervals []Interval, competing []Competing, numUsers int, theta float64) (*Instance, error) {
	return core.NewInstance(events, intervals, competing, numUsers, theta)
}

// NewSchedule returns an empty schedule over the instance, for callers that
// want to build schedules manually rather than via a Scheduler.
func NewSchedule(inst *Instance) *Schedule { return core.NewSchedule(inst) }

// NewScorer builds a scorer for the instance (precomputing the per-interval
// competing-interest sums).
func NewScorer(inst *Instance) *Scorer { return core.NewScorer(inst) }

// NewScheduler returns the scheduler implementing the named algorithm.
// seed only affects RAND.
func NewScheduler(a Algorithm, seed uint64) (Scheduler, error) {
	return algo.New(string(a), seed)
}

// ScorerOptions enables the problem extensions of Section 2.1: user weights
// (influence-weighted attendance) and per-event organization costs (the
// profit-oriented SES variant). The zero value is plain attendance
// maximization.
type ScorerOptions = core.ScorerOptions

// NewSchedulerWithOptions returns the named scheduler with the problem
// extensions enabled. All equivalence guarantees (INC ≡ ALG, HOR-I ≡ HOR)
// hold under the extensions.
func NewSchedulerWithOptions(a Algorithm, seed uint64, opts ScorerOptions) (Scheduler, error) {
	return algo.NewWithOptions(string(a), seed, opts)
}

// Solve schedules up to k events on the instance with the given algorithm.
// It is the one-call entry point; use NewScheduler to reuse a scheduler.
func Solve(inst *Instance, k int, a Algorithm) (*Result, error) {
	s, err := NewScheduler(a, 1)
	if err != nil {
		return nil, err
	}
	return s.Schedule(inst, k)
}

// SolveWithOptions is Solve with the Section 2.1 problem extensions.
func SolveWithOptions(inst *Instance, k int, a Algorithm, opts ScorerOptions) (*Result, error) {
	s, err := NewSchedulerWithOptions(a, 1, opts)
	if err != nil {
		return nil, err
	}
	return s.Schedule(inst, k)
}

// Extend grows an existing feasible schedule by up to extra greedy
// selections without disturbing it — the organizer's re-planning workflow
// ("we found budget for three more events"). Extending an empty schedule is
// exactly ALG. The base schedule is not modified.
func Extend(inst *Instance, base *Schedule, extra int) (*Result, error) {
	return algo.Extend(inst, base, extra, ScorerOptions{})
}

// ExtendWithOptions is Extend under the Section 2.1 problem extensions, so
// re-planning can optimize the same weighted/profit objective the original
// schedule was built with.
func ExtendWithOptions(inst *Instance, base *Schedule, extra int, opts ScorerOptions) (*Result, error) {
	return algo.Extend(inst, base, extra, opts)
}

// RunningExample returns the paper's Figure 1 running example instance
// (4 events, 2 intervals, 2 competing events, 2 users).
func RunningExample() *Instance { return core.RunningExample() }

// Digest returns inst.Digest(): the SHA-256 content digest of the instance
// (parameters, metadata and both matrices). Equal digests mean equal
// problems, which is how the sesd service deduplicates uploads and keys its
// solver result cache.
func Digest(inst *Instance) string { return inst.Digest() }

// Serialization, re-exported from the wire-format engine so library users
// can produce and consume the documents the CLIs and the sesd HTTP service
// exchange (instances as written by sesgen, schedules as written by sesrun).

// WriteInstance encodes the instance as versioned JSON.
func WriteInstance(w io.Writer, inst *Instance) error { return seio.WriteInstance(w, inst) }

// ReadInstance decodes and validates an instance from JSON.
func ReadInstance(r io.Reader) (*Instance, error) { return seio.ReadInstance(r) }

// WriteSchedule encodes the schedule with its evaluation (utility and
// per-event expected attendance).
func WriteSchedule(w io.Writer, inst *Instance, s *Schedule) error {
	return seio.WriteSchedule(w, inst, s)
}

// ReadSchedule decodes a schedule and replays it onto the instance,
// re-validating feasibility.
func ReadSchedule(r io.Reader, inst *Instance) (*Schedule, error) {
	return seio.ReadSchedule(r, inst)
}

// SimResult aggregates a Monte-Carlo attendance simulation.
type SimResult = sim.Result

// Simulate runs trials Monte-Carlo repetitions of the Section 2.1 attendance
// process on the schedule, the empirical counterpart of the analytic Ω the
// algorithms optimize.
func Simulate(inst *Instance, s *Schedule, trials int, seed uint64) (*SimResult, error) {
	return sim.Simulate(inst, s, trials, seed)
}

// Workload generation, re-exported from the dataset engine.
type (
	// SyntheticConfig is the Table 1 synthetic-workload parameter set.
	SyntheticConfig = dataset.Config
	// MeetupConfig parameterizes the simulated Meetup (EBSN) dataset.
	MeetupConfig = dataset.MeetupConfig
	// ConcertsConfig parameterizes the simulated Yahoo! Music dataset.
	ConcertsConfig = dataset.ConcertsConfig
	// Distribution selects Uniform / Normal / Zipfian value generation.
	Distribution = dataset.Distribution
)

// Interest/activity distributions of Table 1.
const (
	Uniform = dataset.Uniform
	Normal  = dataset.Normal
	Zipf1   = dataset.Zipf1
	Zipf2   = dataset.Zipf2
	Zipf3   = dataset.Zipf3
)

// DefaultSyntheticConfig returns the paper's default parameter setting for k
// scheduled events.
func DefaultSyntheticConfig(k, numUsers int, interest Distribution, seed uint64) SyntheticConfig {
	return dataset.DefaultConfig(k, numUsers, interest, seed)
}

// GenerateSynthetic builds a synthetic instance per the configuration.
func GenerateSynthetic(cfg SyntheticConfig) (*Instance, error) { return dataset.Generate(cfg) }

// DefaultMeetupConfig returns the simulated-Meetup defaults for k scheduled
// events.
func DefaultMeetupConfig(k, numUsers int, seed uint64) MeetupConfig {
	return dataset.DefaultMeetupConfig(k, numUsers, seed)
}

// GenerateMeetup builds the simulated Meetup instance.
func GenerateMeetup(cfg MeetupConfig) (*Instance, error) { return dataset.MeetupSim(cfg) }

// DefaultConcertsConfig returns the simulated-Concerts defaults for k
// scheduled events.
func DefaultConcertsConfig(k, numUsers int, seed uint64) ConcertsConfig {
	return dataset.DefaultConcertsConfig(k, numUsers, seed)
}

// GenerateConcerts builds the simulated Concerts instance.
func GenerateConcerts(cfg ConcertsConfig) (*Instance, error) { return dataset.ConcertsSim(cfg) }

// EventReport describes one scheduled event in a Report.
type EventReport struct {
	Event    int     // event index
	Name     string  // event name (may be empty)
	Interval int     // interval index
	At       string  // interval name (may be empty)
	Expected float64 // expected attendance ω
}

// Report summarizes a schedule for presentation: total utility and the
// per-event expected attendance, ordered by assignment sequence.
type Report struct {
	Utility float64
	Events  []EventReport
}

// Summarize builds a Report for the schedule.
func Summarize(inst *Instance, s *Schedule) Report { return NewReport(seio.NewScheduleMsg(inst, s)) }

// ScheduleMsg is the evaluated wire form of a schedule: what WriteSchedule
// writes and the sesd service returns.
type ScheduleMsg = seio.ScheduleMsg

// NewReport renders an already evaluated schedule as a Report without
// evaluating it again.
func NewReport(msg ScheduleMsg) Report {
	rep := Report{Utility: msg.Utility}
	for _, a := range msg.Assignments {
		rep.Events = append(rep.Events, EventReport{
			Event:    a.Event,
			Name:     a.EventName,
			Interval: a.Interval,
			At:       a.AtName,
			Expected: a.Expected,
		})
	}
	return rep
}

// String renders the report as a small table.
func (r Report) String() string {
	out := fmt.Sprintf("total expected attendance Ω = %.2f\n", r.Utility)
	for _, e := range r.Events {
		name := e.Name
		if name == "" {
			name = fmt.Sprintf("e%d", e.Event)
		}
		at := e.At
		if at == "" {
			at = fmt.Sprintf("t%d", e.Interval)
		}
		out += fmt.Sprintf("  %-24s @ %-12s ω = %8.2f\n", name, at, e.Expected)
	}
	return out
}
