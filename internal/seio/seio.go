// Package seio serializes SES problem instances and schedules as JSON, so
// the CLI tools can pipe datasets between sesgen (generate), sesrun (solve)
// and external tooling. The format is versioned and self-describing; the
// interest matrix covers candidate events first, then competing events, in
// the same order as core.Instance rows.
package seio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
)

// FormatVersion is bumped on breaking changes to the JSON layout. Dense
// instance documents and schedules are written at this version, unchanged.
const FormatVersion = 1

// SparseFormatVersion marks instance documents whose interest matrix is
// encoded as per-column nonzero lists (core sparse instances). Readers accept
// both versions; pre-sparse readers reject version-2 documents through the
// existing newer-than-supported gating, and dense files remain readable and
// byte-identical on the wire.
const SparseFormatVersion = 2

// checkVersion validates a document's format version, distinguishing files
// produced by a newer build (actionable: upgrade the reader) from garbage or
// missing versions.
func checkVersion(kind string, v int) error {
	switch {
	case v == FormatVersion:
		return nil
	case v > FormatVersion:
		return fmt.Errorf("seio: %s format version %d is newer than this build supports (max %d); upgrade the tools", kind, v, FormatVersion)
	default:
		return fmt.Errorf("seio: unsupported %s format version %d (want %d)", kind, v, FormatVersion)
	}
}

// instanceJSON is the on-disk form of a core.Instance.
type instanceJSON struct {
	Version   int             `json:"version"`
	Theta     float64         `json:"theta"`
	Events    []eventJSON     `json:"events"`
	Intervals []intervalJSON  `json:"intervals"`
	Competing []competingJSON `json:"competing,omitempty"`
	NumUsers  int             `json:"num_users"`
	// Interest rows are users × (|E|+|C|); Activity rows users × |T|.
	// Version-1 documents carry Interest; version-2 documents carry
	// InterestSparse instead (one nonzero column per candidate event, then
	// per competing event).
	Interest       [][]float32     `json:"interest,omitempty"`
	InterestSparse []sparseColJSON `json:"interest_sparse,omitempty"`
	Activity       [][]float32     `json:"activity"`
}

// sparseColJSON is one interest column's nonzero list: Users ascending,
// Mu the matching µ values (never zero).
type sparseColJSON struct {
	Users []uint32  `json:"users"`
	Mu    []float32 `json:"mu"`
}

type eventJSON struct {
	Name      string  `json:"name,omitempty"`
	Location  int     `json:"location"`
	Resources float64 `json:"resources"`
}

type intervalJSON struct {
	Name  string `json:"name,omitempty"`
	Start int64  `json:"start,omitempty"`
	End   int64  `json:"end,omitempty"`
}

type competingJSON struct {
	Name     string `json:"name,omitempty"`
	Interval int    `json:"interval"`
	Start    int64  `json:"start,omitempty"`
	End      int64  `json:"end,omitempty"`
}

// WriteInstance encodes the instance as JSON: dense instances as the
// unchanged version-1 document, sparse instances as the version-2 document
// carrying per-column nonzero lists, so serialized size stays proportional
// to nonzeros and a round trip preserves the representation.
func WriteInstance(w io.Writer, inst *core.Instance) error {
	ij := instanceJSON{
		Version:  FormatVersion,
		Theta:    inst.Theta,
		NumUsers: inst.NumUsers(),
	}
	for _, e := range inst.Events {
		ij.Events = append(ij.Events, eventJSON{Name: e.Name, Location: e.Location, Resources: e.Resources})
	}
	for _, t := range inst.Intervals {
		ij.Intervals = append(ij.Intervals, intervalJSON{Name: t.Name, Start: t.Start, End: t.End})
	}
	for _, c := range inst.Competing {
		ij.Competing = append(ij.Competing, competingJSON{Name: c.Name, Interval: c.Interval, Start: c.Start, End: c.End})
	}
	if cols := inst.SparseInterest(); cols != nil {
		ij.Version = SparseFormatVersion
		ij.InterestSparse = make([]sparseColJSON, len(cols))
		for h := range cols {
			// Canonicalize empty columns to non-nil slices so they encode
			// as [] rather than null.
			users, mu := cols[h].Users, cols[h].Mu
			if users == nil {
				users, mu = []uint32{}, []float32{}
			}
			ij.InterestSparse[h] = sparseColJSON{Users: users, Mu: mu}
		}
	} else {
		ij.Interest = make([][]float32, inst.NumUsers())
		nI := inst.NumEvents() + inst.NumCompeting()
		for u := 0; u < inst.NumUsers(); u++ {
			ij.Interest[u] = make([]float32, nI)
			inst.CopyInterestRow(u, ij.Interest[u])
		}
	}
	ij.Activity = make([][]float32, inst.NumUsers())
	for u := 0; u < inst.NumUsers(); u++ {
		ij.Activity[u] = make([]float32, inst.NumIntervals())
		inst.CopyActivityRow(u, ij.Activity[u])
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(ij); err != nil {
		return fmt.Errorf("seio: encode instance: %w", err)
	}
	return bw.Flush()
}

// value01 reports whether v is finite and within [0,1]. Written as a
// conjunction so NaN — for which both halves are false — fails it too: the
// decode path is a trust boundary, and a single NaN µ or σ cell would poison
// every utility downstream and make solve responses unencodable (500s).
func value01(v float32) bool { return v >= 0 && v <= 1 }

// ReadInstance decodes an instance from JSON and validates it: shapes are
// checked before any allocation proportional to the declared dimensions, and
// every µ/σ value must be finite and in [0,1] — violations name the offending
// cell so the server can hand the uploader a precise 400.
func ReadInstance(r io.Reader) (*core.Instance, error) {
	var ij instanceJSON
	dec := json.NewDecoder(bufio.NewReader(r))
	if err := dec.Decode(&ij); err != nil {
		return nil, fmt.Errorf("seio: decode instance: %w", err)
	}
	switch {
	case ij.Version == FormatVersion || ij.Version == SparseFormatVersion:
	case ij.Version > SparseFormatVersion:
		return nil, fmt.Errorf("seio: instance format version %d is newer than this build supports (max %d); upgrade the tools", ij.Version, SparseFormatVersion)
	default:
		return nil, fmt.Errorf("seio: unsupported instance format version %d (want %d or %d)", ij.Version, FormatVersion, SparseFormatVersion)
	}
	sparse := ij.Version == SparseFormatVersion
	if sparse && ij.Interest != nil {
		return nil, fmt.Errorf("seio: version-%d instance carries dense interest rows", SparseFormatVersion)
	}
	if !sparse && ij.InterestSparse != nil {
		return nil, fmt.Errorf("seio: version-%d instance carries sparse interest columns", FormatVersion)
	}
	events := make([]core.Event, len(ij.Events))
	for i, e := range ij.Events {
		events[i] = core.Event{Name: e.Name, Location: e.Location, Resources: e.Resources}
	}
	intervals := make([]core.Interval, len(ij.Intervals))
	for i, t := range ij.Intervals {
		intervals[i] = core.Interval{Name: t.Name, Start: t.Start, End: t.End}
	}
	competing := make([]core.Competing, len(ij.Competing))
	for i, c := range ij.Competing {
		competing[i] = core.Competing{Name: c.Name, Interval: c.Interval, Start: c.Start, End: c.End}
	}
	// Validate the matrix shape BEFORE allocating the instance: the
	// allocation is O(num_users × (|E|+|C|)) dense (O(num_users × |T|)
	// activity either way), so a hostile document declaring huge dimensions
	// with a tiny body must fail on the cheap checks — row counts, sparse
	// nonzero counts — instead of committing gigabytes first.
	if len(ij.Activity) != ij.NumUsers {
		return nil, fmt.Errorf("seio: %d activity rows do not match %d users", len(ij.Activity), ij.NumUsers)
	}
	wantI := len(events) + len(competing)
	for u := range ij.Activity {
		if len(ij.Activity[u]) != len(intervals) {
			return nil, fmt.Errorf("seio: activity row %d has %d values, want %d", u, len(ij.Activity[u]), len(intervals))
		}
		for t, v := range ij.Activity[u] {
			if !value01(v) {
				return nil, fmt.Errorf("seio: activity value %v for user %d, interval %d out of [0,1]", v, u, t)
			}
		}
	}
	var inst *core.Instance
	if sparse {
		if len(ij.InterestSparse) != wantI {
			return nil, fmt.Errorf("seio: %d sparse interest columns, want %d", len(ij.InterestSparse), wantI)
		}
		// Structural column invariants (lengths, strictly ascending users in
		// range, no explicit zeros) are core.NewInstanceSparse's contract;
		// its errors already name the offending column and user. Value
		// ranges are this trust boundary's job, checked once here.
		cols := make([]core.SparseCol, wantI)
		for h, cj := range ij.InterestSparse {
			for i, v := range cj.Mu {
				if !value01(v) {
					user := -1
					if i < len(cj.Users) {
						user = int(cj.Users[i])
					}
					return nil, fmt.Errorf("seio: interest value %v for user %d, column %d out of [0,1]", v, user, h)
				}
			}
			cols[h] = core.SparseCol{Users: cj.Users, Mu: cj.Mu}
		}
		var err error
		inst, err = core.NewInstanceSparse(events, intervals, competing, ij.NumUsers, ij.Theta, cols)
		if err != nil {
			return nil, fmt.Errorf("seio: %w", err)
		}
		for u := 0; u < ij.NumUsers; u++ {
			inst.SetActivityRow(u, ij.Activity[u])
		}
	} else {
		if len(ij.Interest) != ij.NumUsers {
			return nil, fmt.Errorf("seio: %d interest rows do not match %d users", len(ij.Interest), ij.NumUsers)
		}
		for u := range ij.Interest {
			if len(ij.Interest[u]) != wantI {
				return nil, fmt.Errorf("seio: interest row %d has %d values, want %d", u, len(ij.Interest[u]), wantI)
			}
			for h, v := range ij.Interest[u] {
				if !value01(v) {
					return nil, fmt.Errorf("seio: interest value %v for user %d, column %d out of [0,1]", v, u, h)
				}
			}
		}
		var err error
		inst, err = core.NewInstance(events, intervals, competing, ij.NumUsers, ij.Theta)
		if err != nil {
			return nil, fmt.Errorf("seio: %w", err)
		}
		for u := 0; u < ij.NumUsers; u++ {
			inst.SetInterestRow(u, ij.Interest[u])
			inst.SetActivityRow(u, ij.Activity[u])
		}
	}
	// Every matrix cell was range-checked above with its coordinates, so
	// only the structural invariants remain — a full Validate would re-scan
	// both matrices for nothing on million-user uploads.
	if err := inst.ValidateStructure(); err != nil {
		return nil, fmt.Errorf("seio: %w", err)
	}
	return inst, nil
}

// ScheduleMsg is the wire form of a schedule plus its evaluation. It is both
// the on-disk schedule document of the CLI pipelines and the schedule payload
// of the sesd HTTP API.
type ScheduleMsg struct {
	Version     int             `json:"version"`
	Utility     float64         `json:"utility"`
	Assignments []AssignmentMsg `json:"assignments"`
}

// AssignmentMsg is one event→interval assignment with its evaluation.
type AssignmentMsg struct {
	Event     int     `json:"event"`
	EventName string  `json:"event_name,omitempty"`
	Interval  int     `json:"interval"`
	AtName    string  `json:"interval_name,omitempty"`
	Expected  float64 `json:"expected_attendance"`
}

// NewScheduleMsg evaluates the schedule and builds its wire message: total
// utility plus per-assignment names and expected attendance.
func NewScheduleMsg(inst *core.Instance, s *core.Schedule) ScheduleMsg {
	utility, attendance := core.NewScorer(inst).Evaluate(s)
	return ScheduleMsgFrom(s, utility, attendance)
}

// ScheduleMsgFrom formats the wire message of an evaluated schedule: utility
// and attendance are a plain scorer's Evaluate(s) (no ScorerOptions; see
// core.Scorer.Plain), attendance in selection order. A caller that holds the
// evaluation of a solve pays no scorer precompute and no second pass.
func ScheduleMsgFrom(s *core.Schedule, utility float64, attendance []float64) ScheduleMsg {
	inst := s.Instance()
	sj := ScheduleMsg{Version: FormatVersion, Utility: utility}
	for i, a := range s.Assignments() {
		sj.Assignments = append(sj.Assignments, AssignmentMsg{
			Event:     a.Event,
			EventName: inst.Events[a.Event].Name,
			Interval:  a.Interval,
			AtName:    inst.Intervals[a.Interval].Name,
			Expected:  attendance[i],
		})
	}
	return sj
}

// Replay rebuilds the schedule on the instance, re-validating feasibility
// assignment by assignment.
func (m ScheduleMsg) Replay(inst *core.Instance) (*core.Schedule, error) {
	s := core.NewSchedule(inst)
	for _, a := range m.Assignments {
		if err := s.Assign(a.Event, a.Interval); err != nil {
			return nil, fmt.Errorf("seio: replay assignment e%d→t%d: %w", a.Event, a.Interval, err)
		}
	}
	return s, nil
}

// WriteSchedule encodes the schedule with per-event expected attendance.
func WriteSchedule(w io.Writer, inst *core.Instance, s *core.Schedule) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(NewScheduleMsg(inst, s)); err != nil {
		return fmt.Errorf("seio: encode schedule: %w", err)
	}
	return nil
}

// ReadSchedule decodes a schedule and replays it onto the instance,
// re-validating feasibility.
func ReadSchedule(r io.Reader, inst *core.Instance) (*core.Schedule, error) {
	var sj ScheduleMsg
	if err := json.NewDecoder(r).Decode(&sj); err != nil {
		return nil, fmt.Errorf("seio: decode schedule: %w", err)
	}
	if err := checkVersion("schedule", sj.Version); err != nil {
		return nil, err
	}
	return sj.Replay(inst)
}
