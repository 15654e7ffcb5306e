package seio

import "time"

// DurationMS flattens a duration to fractional milliseconds — the one
// encoding of elapsed time shared by the HTTP responses and the sesbench
// -json records, so the two cannot drift apart.
func DurationMS(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// HTTP wire messages of the sesd solver service (internal/server). They live
// here, next to the instance/schedule formats, so the body shapes of the
// batch pipelines and the online service stay one vocabulary: an uploaded
// instance is exactly a sesgen document, a returned schedule is exactly a
// sesrun document.

// InstanceInfo is the store's metadata view of an instance: returned by
// instance CRUD calls and the instance listing, and echoed in every solver
// response so clients can detect version skew.
type InstanceInfo struct {
	Name      string  `json:"name"`
	Version   uint64  `json:"store_version"`
	Digest    string  `json:"digest"`
	Events    int     `json:"events"`
	Intervals int     `json:"intervals"`
	Competing int     `json:"competing"`
	Users     int     `json:"users"`
	Theta     float64 `json:"theta"`
	// Rep and InterestNNZ describe the interest representation of the
	// stored instance: "sparse" with its nonzero count, or empty for the
	// classical dense layout (omitted on the wire, so dense responses are
	// unchanged).
	Rep         string `json:"rep,omitempty"`
	InterestNNZ int64  `json:"interest_nnz,omitempty"`
}

// SolveRequest is the body of POST /instances/{name}/solve.
type SolveRequest struct {
	// Algorithm is one of ALG, INC, HOR, HOR-I, TOP, RAND; empty selects
	// HOR-I (the paper's fastest method).
	Algorithm string `json:"algorithm,omitempty"`
	// K is the number of events to schedule.
	K int `json:"k"`
	// Seed only affects RAND.
	Seed uint64 `json:"seed,omitempty"`
	// UserWeights / EventCosts enable the Section 2.1 problem extensions
	// (influence-weighted attendance, profit-oriented costs).
	UserWeights []float64 `json:"user_weights,omitempty"`
	EventCosts  []float64 `json:"event_costs,omitempty"`
}

// SolveResponse is the body returned by solve and extend.
type SolveResponse struct {
	Instance  InstanceInfo `json:"instance"`
	Algorithm string       `json:"algorithm"`
	K         int          `json:"k"`
	Schedule  ScheduleMsg  `json:"schedule"`
	// ScoreEvals and Examined are the paper's work counters of the run
	// that produced the schedule; a cached response repeats the original
	// run's counters with Cached set (no new scorer work happened).
	ScoreEvals int64   `json:"score_evals"`
	Examined   int64   `json:"examined"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	// Cached reports that the response came from the result cache.
	Cached bool `json:"cached"`
	// TraceID names the server-side trace of the request that produced this
	// response; resolve it at GET /debug/traces/{id} while retained. Never
	// cached or persisted — each response carries its own request's ID, even
	// on the cache-hit path.
	TraceID string `json:"trace_id,omitempty"`
}

// ExtendRequest is the body of POST /instances/{name}/extend: grow Base by
// Extra more greedy selections without disturbing it.
type ExtendRequest struct {
	// Base lists the existing assignments; an empty base extends from
	// scratch (exactly ALG).
	Base []AssignmentMsg `json:"base,omitempty"`
	// Extra is the number of additional events to schedule.
	Extra       int       `json:"extra"`
	UserWeights []float64 `json:"user_weights,omitempty"`
	EventCosts  []float64 `json:"event_costs,omitempty"`
}

// CellUpdate sets one matrix cell: interest (Index = candidate event),
// competing interest (Index = competing event) or activity (Index =
// interval), depending on which MutateRequest list carries it.
type CellUpdate struct {
	User  int     `json:"user"`
	Index int     `json:"index"`
	Value float64 `json:"value"`
}

// NewCompeting announces a third-party event: it is appended to the
// instance's competing set with the given per-user interest column.
type NewCompeting struct {
	Name     string    `json:"name,omitempty"`
	Interval int       `json:"interval"`
	Interest []float32 `json:"interest"`
}

// MutateRequest is the body of PATCH /instances/{name}. Each applied request
// bumps the instance's store version exactly once; in-flight solves keep
// reading the pre-mutation snapshot.
type MutateRequest struct {
	Interest          []CellUpdate   `json:"interest,omitempty"`
	CompetingInterest []CellUpdate   `json:"competing_interest,omitempty"`
	Activity          []CellUpdate   `json:"activity,omitempty"`
	AddCompeting      []NewCompeting `json:"add_competing,omitempty"`
}

// Empty reports whether the request carries no mutation at all.
func (m MutateRequest) Empty() bool {
	return len(m.Interest) == 0 && len(m.CompetingInterest) == 0 &&
		len(m.Activity) == 0 && len(m.AddCompeting) == 0
}

// BatchMutateRequest is the body of POST /instances/{name}/mutations: a list
// of deltas applied atomically as ONE version bump (and one WAL record) —
// the streaming producer's unit of ingestion. The batch is flattened with
// Merge before application, so the whole list either applies or none of it
// does.
type BatchMutateRequest struct {
	Mutations []MutateRequest `json:"mutations"`
}

// Empty reports whether no request in the batch carries any mutation.
func (b BatchMutateRequest) Empty() bool {
	for _, m := range b.Mutations {
		if !m.Empty() {
			return false
		}
	}
	return true
}

// Merge flattens the batch into one equivalent MutateRequest by
// concatenating each list in batch order. Cell updates apply in list order,
// so when two requests touch the same cell the later one wins — exactly the
// outcome of applying them sequentially. The one semantic restriction:
// competing-interest indexes resolve against the instance as of the START of
// the batch, so a batch cannot AddCompeting an event and then address it by
// index in the same batch (its NewCompeting.Interest column already carries
// the full per-user data, making such a reference redundant; the server
// rejects it with a range error rather than guessing).
func (b BatchMutateRequest) Merge() MutateRequest {
	var out MutateRequest
	for _, m := range b.Mutations {
		out.Interest = append(out.Interest, m.Interest...)
		out.CompetingInterest = append(out.CompetingInterest, m.CompetingInterest...)
		out.Activity = append(out.Activity, m.Activity...)
		out.AddCompeting = append(out.AddCompeting, m.AddCompeting...)
	}
	return out
}

// BatchMutateResponse echoes the applied batch: the post-batch instance info
// and how many non-empty mutations the version bump absorbed.
type BatchMutateResponse struct {
	Instance InstanceInfo `json:"instance"`
	Applied  int          `json:"applied"`
}

// ResolveEvent is one Server-Sent Event of GET /instances/{name}/subscribe:
// pushed after each mutation once the instance's schedule has been re-solved
// at the new version. Added/Removed/Moved express the schedule delta against
// the previously pushed schedule, so thin clients can patch a display
// without diffing; the full schedule rides along for clients that would
// rather replace than patch.
type ResolveEvent struct {
	Instance  InstanceInfo `json:"instance"`
	Algorithm string       `json:"algorithm"`
	K         int          `json:"k"`
	Schedule  ScheduleMsg  `json:"schedule"`
	// Added lists events scheduled now but not in the previous push;
	// Removed lists events dropped since then; Moved lists events whose
	// interval changed (carrying the NEW assignment). An event whose
	// assignment is unchanged but whose expected attendance shifted (the
	// mutation changed the numbers under the same schedule) appears nowhere
	// — the full Schedule is the source of truth for evaluations.
	Added   []AssignmentMsg `json:"added,omitempty"`
	Removed []AssignmentMsg `json:"removed,omitempty"`
	Moved   []AssignmentMsg `json:"moved,omitempty"`
	// Warm reports that the re-solve was served by the delta-aware warm
	// path (engine reuse); false means a cold rebuild was needed.
	Warm bool `json:"warm,omitempty"`
	// ElapsedMS is the re-solve wall time (scheduling only, not queue wait).
	ElapsedMS float64 `json:"elapsed_ms"`
}

// DiffSchedules computes the Added/Removed/Moved lists of a ResolveEvent
// from the previously pushed schedule to the new one. Assignments are keyed
// by event: an event present only in next is added, only in prev removed,
// and present in both with different intervals moved.
func DiffSchedules(prev, next []AssignmentMsg) (added, removed, moved []AssignmentMsg) {
	prevBy := make(map[int]AssignmentMsg, len(prev))
	for _, a := range prev {
		prevBy[a.Event] = a
	}
	seen := make(map[int]bool, len(next))
	for _, a := range next {
		seen[a.Event] = true
		p, ok := prevBy[a.Event]
		switch {
		case !ok:
			added = append(added, a)
		case p.Interval != a.Interval:
			moved = append(moved, a)
		}
	}
	for _, a := range prev {
		if !seen[a.Event] {
			removed = append(removed, a)
		}
	}
	return added, removed, moved
}

// SimulateRequest is the body of POST /instances/{name}/simulate: Monte-Carlo
// validation of a schedule's expected attendance (internal/sim).
type SimulateRequest struct {
	Schedule []AssignmentMsg `json:"schedule"`
	Trials   int             `json:"trials"`
	Seed     uint64          `json:"seed,omitempty"`
}

// SimulateResponse reports the simulation against the analytic utility.
type SimulateResponse struct {
	Instance       InstanceInfo `json:"instance"`
	Trials         int          `json:"trials"`
	Analytic       float64      `json:"analytic_utility"`
	Simulated      float64      `json:"simulated_utility"`
	RelErr         float64      `json:"relative_error"`
	CompetingTotal float64      `json:"competing_attendance"`
	// PerEvent maps event index → mean simulated attendance.
	PerEvent map[int]float64 `json:"per_event,omitempty"`
}

// SummarizeRequest is the body of POST /instances/{name}/summarize.
type SummarizeRequest struct {
	Schedule []AssignmentMsg `json:"schedule"`
}

// SummarizeResponse re-evaluates the schedule against the instance's current
// version: utility, per-assignment expected attendance and a rendered table.
type SummarizeResponse struct {
	Instance InstanceInfo `json:"instance"`
	Schedule ScheduleMsg  `json:"schedule"`
	// Text is the human-readable report table.
	Text string `json:"text"`
}

// Job statuses. A job is running while any cell is queued or running;
// cancelled once cancellation stopped at least one cell; done otherwise
// (individual cells may still have failed — their errors are per-cell).
const (
	JobRunning   = "running"
	JobDone      = "done"
	JobCancelled = "cancelled"
)

// Cell states of one sweep cell (algorithm × k).
const (
	CellQueued    = "queued"
	CellRunning   = "running"
	CellDone      = "done"
	CellFailed    = "failed"
	CellCancelled = "cancelled"
)

// JobRequest is the body of POST /instances/{name}/jobs: submit an
// asynchronous sweep of algorithms × k values over the instance's current
// version. The job pins that version's snapshot, so later mutations never
// leak into a running sweep and every cell answers exactly what a
// synchronous solve at submit time would have.
type JobRequest struct {
	// Algorithms lists the sweep's methods; empty selects the four paper
	// algorithms (ALG, INC, HOR, HOR-I).
	Algorithms []string `json:"algorithms,omitempty"`
	// Ks lists the k values; every algorithm × k pair becomes one cell.
	Ks []int `json:"ks"`
	// Seed only affects RAND cells.
	Seed uint64 `json:"seed,omitempty"`
	// UserWeights / EventCosts enable the Section 2.1 problem extensions
	// for every cell of the sweep.
	UserWeights []float64 `json:"user_weights,omitempty"`
	EventCosts  []float64 `json:"event_costs,omitempty"`
}

// JobCellMsg is the wire view of one sweep cell. Result is present once the
// cell is done — polling a running job returns the done cells' results
// immediately (partial results).
type JobCellMsg struct {
	Algorithm string `json:"algorithm"`
	K         int    `json:"k"`
	State     string `json:"state"`
	// Error reports why a failed or cancelled cell stopped.
	Error  string         `json:"error,omitempty"`
	Result *SolveResponse `json:"result,omitempty"`
}

// JobCounts aggregates cell states for at-a-glance polling.
type JobCounts struct {
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
}

// Active returns the number of cells still queued or running.
func (c JobCounts) Active() int { return c.Queued + c.Running }

// JobStatusMsg is the body returned by job submit, poll and cancel.
type JobStatusMsg struct {
	ID       string       `json:"id"`
	Instance InstanceInfo `json:"instance"`
	Status   string       `json:"status"`
	Counts   JobCounts    `json:"counts"`
	// ElapsedMS measures submit → finish (or submit → now while running).
	ElapsedMS float64 `json:"elapsed_ms"`
	// Cells is populated by GET /jobs/{id} and omitted from the listing.
	Cells []JobCellMsg `json:"cells,omitempty"`
}

// JobListResponse is the body of GET /jobs.
type JobListResponse struct {
	Jobs []JobStatusMsg `json:"jobs"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}
