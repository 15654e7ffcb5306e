package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/seio"
)

// openDurable starts a server over dir WITHOUT auto-cleanup, so tests can
// stop and restart it against the same data directory.
func openDurable(t *testing.T, cfg Config) (*Server, *httptest.Server, func()) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	return s, ts, func() {
		ts.Close()
		s.Close()
	}
}

func getRaw(t *testing.T, c *http.Client, url string) []byte {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestRecoveryBitIdentical is the PR's restart invariant: stop sesd with a
// populated store and restart it on the same data directory — the instance
// listing (names, versions, digests), the cached solve results and the
// finished jobs must come back bit-identical, and the version sequence must
// continue where it left off.
func TestRecoveryBitIdentical(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 2, Queue: 16, DataDir: dir}
	_, ts, stop := openDurable(t, cfg)
	c := ts.Client()

	// Build interesting state: two instances, a mutation, a delete +
	// re-put (version sequence stress), solves (cache entries) and a
	// finished sweep job.
	do(t, c, "PUT", ts.URL+"/instances/a", testInstanceJSON(t, 3, 30, 1), http.StatusCreated, nil)
	do(t, c, "PUT", ts.URL+"/instances/b", testInstanceJSON(t, 4, 25, 2), http.StatusCreated, nil)
	do(t, c, "PATCH", ts.URL+"/instances/a",
		jsonBody(t, seio.MutateRequest{Activity: []seio.CellUpdate{{User: 1, Index: 0, Value: 0.75}}}),
		http.StatusOK, nil)
	do(t, c, "DELETE", ts.URL+"/instances/b", nil, http.StatusNoContent, nil)
	do(t, c, "PUT", ts.URL+"/instances/b", testInstanceJSON(t, 4, 25, 3), http.StatusCreated, nil)

	var solveA, solveB seio.SolveResponse
	do(t, c, "POST", ts.URL+"/instances/a/solve", jsonBody(t, seio.SolveRequest{Algorithm: "HOR-I", K: 2}), http.StatusOK, &solveA)
	do(t, c, "POST", ts.URL+"/instances/b/solve", jsonBody(t, seio.SolveRequest{Algorithm: "ALG", K: 2}), http.StatusOK, &solveB)

	var job seio.JobStatusMsg
	do(t, c, "POST", ts.URL+"/instances/a/jobs",
		jsonBody(t, seio.JobRequest{Algorithms: []string{"ALG", "HOR"}, Ks: []int{2}}), http.StatusAccepted, &job)
	job = pollJob(t, c, ts.URL, job.ID, 10*time.Second)
	if job.Status != seio.JobDone {
		t.Fatalf("job did not finish: %q", job.Status)
	}

	listing := getRaw(t, c, ts.URL+"/instances")
	instA := getRaw(t, c, ts.URL+"/instances/a")
	stop()

	// Restart on the same directory.
	srv2, ts2, stop2 := openDurable(t, cfg)
	defer stop2()
	c2 := ts2.Client()

	if got := getRaw(t, c2, ts2.URL+"/instances"); string(got) != string(listing) {
		t.Errorf("instance listing changed across restart:\n before: %s\n after:  %s", listing, got)
	}
	if got := getRaw(t, c2, ts2.URL+"/instances/a"); string(got) != string(instA) {
		t.Error("instance document changed across restart")
	}

	// The cached solves survive: identical responses, no new solver work.
	var solveA2, solveB2 seio.SolveResponse
	do(t, c2, "POST", ts2.URL+"/instances/a/solve", jsonBody(t, seio.SolveRequest{Algorithm: "HOR-I", K: 2}), http.StatusOK, &solveA2)
	do(t, c2, "POST", ts2.URL+"/instances/b/solve", jsonBody(t, seio.SolveRequest{Algorithm: "ALG", K: 2}), http.StatusOK, &solveB2)
	for name, pair := range map[string][2]seio.SolveResponse{"a": {solveA, solveA2}, "b": {solveB, solveB2}} {
		before, after := pair[0], pair[1]
		if !after.Cached {
			t.Errorf("solve %s after restart missed the recovered cache", name)
		}
		after.Cached = before.Cached
		// The trace ID names each REQUEST, not the result: it differs by
		// design even between two cache hits.
		after.TraceID = before.TraceID
		if !reflect.DeepEqual(before, after) {
			t.Errorf("solve %s drifted across restart:\n before %+v\n after  %+v", name, before, after)
		}
	}
	if n := srv2.scoreEvals.Load(); n != 0 {
		t.Errorf("recovered cache still cost %d score evals", n)
	}

	// The finished job is still pollable under its ID with identical cells.
	var job2 seio.JobStatusMsg
	do(t, c2, "GET", ts2.URL+"/jobs/"+job.ID, nil, http.StatusOK, &job2)
	if job2.Status != job.Status || !reflect.DeepEqual(job2.Counts, job.Counts) {
		t.Errorf("job status drifted: %+v vs %+v", job2, job)
	}
	if !reflect.DeepEqual(job2.Cells, job.Cells) {
		t.Errorf("job cells drifted across restart:\n before %+v\n after  %+v", job.Cells, job2.Cells)
	}

	// Version sequences continue: a new upload of "a" is its 4th version
	// (put, mutate = 2 before the restart... put=1, mutate=2 → next is 3).
	var info seio.InstanceInfo
	do(t, c2, "PUT", ts2.URL+"/instances/a", testInstanceJSON(t, 3, 30, 9), http.StatusOK, &info)
	if info.Version != 3 {
		t.Errorf("version sequence restarted: got v%d, want v3", info.Version)
	}
	// ...and a new job gets a fresh ID past the recovered sequence.
	var jobNew seio.JobStatusMsg
	do(t, c2, "POST", ts2.URL+"/instances/a/jobs",
		jsonBody(t, seio.JobRequest{Algorithms: []string{"HOR"}, Ks: []int{2}}), http.StatusAccepted, &jobNew)
	if jobNew.ID == job.ID {
		t.Errorf("job ID %s reused after recovery", jobNew.ID)
	}

	if rec, _ := srv2.Recovery(); srv2.wal == nil || rec == nil || rec.Records == 0 {
		t.Errorf("durable server missing its WAL or recovery info: %+v", rec)
	}
}

// TestRecoveryTornTail crashes the service "mid-append" — the WAL's final
// record is physically truncated, as a power cut or SIGKILL during a write
// would leave it — and asserts the service comes back at the last complete
// record with the torn mutation rolled back.
func TestRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, Queue: 4, DataDir: dir}
	_, ts, stop := openDurable(t, cfg)
	c := ts.Client()
	do(t, c, "PUT", ts.URL+"/instances/a", testInstanceJSON(t, 3, 30, 1), http.StatusCreated, nil)
	var mutated seio.InstanceInfo
	do(t, c, "PATCH", ts.URL+"/instances/a",
		jsonBody(t, seio.MutateRequest{Activity: []seio.CellUpdate{{User: 0, Index: 0, Value: 0.9}}}),
		http.StatusOK, &mutated)
	if mutated.Version != 2 {
		t.Fatalf("mutation published v%d, want v2", mutated.Version)
	}
	stop()

	// Tear the tail: the mutate record is the last frame in the only
	// segment; cut into it.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v %v", segs, err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	srv2, ts2, stop2 := openDurable(t, cfg)
	defer stop2()
	c2 := ts2.Client()
	var listing struct {
		Instances []seio.InstanceInfo `json:"instances"`
	}
	do(t, c2, "GET", ts2.URL+"/instances", nil, http.StatusOK, &listing)
	if len(listing.Instances) != 1 {
		t.Fatalf("recovered %d instances, want 1", len(listing.Instances))
	}
	if got := listing.Instances[0].Version; got != 1 {
		t.Errorf("recovered to v%d, want v1 (torn v2 mutation discarded)", got)
	}
	if rec, _ := srv2.Recovery(); rec == nil || rec.TornBytes == 0 {
		t.Errorf("torn tail not reported in recovery stats: %+v", rec)
	}
}

// TestCompactionBoundsReplay drives enough records through a small
// -compact-every to force background snapshots, then restarts and verifies
// the state still recovers exactly — now mostly from the snapshot.
func TestCompactionBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, Queue: 8, DataDir: dir, CompactEvery: 5}
	srv, ts, stop := openDurable(t, cfg)
	c := ts.Client()
	do(t, c, "PUT", ts.URL+"/instances/a", testInstanceJSON(t, 3, 30, 1), http.StatusCreated, nil)
	for i := 0; i < 12; i++ {
		do(t, c, "PATCH", ts.URL+"/instances/a",
			jsonBody(t, seio.MutateRequest{Activity: []seio.CellUpdate{{User: i % 30, Index: 0, Value: float64(i) / 20}}}),
			http.StatusOK, nil)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if srv.walStats().Compactions >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("compactor never ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
	do(t, c, "PATCH", ts.URL+"/instances/a",
		jsonBody(t, seio.MutateRequest{Activity: []seio.CellUpdate{{User: 0, Index: 0, Value: 0.5}}}),
		http.StatusOK, nil)
	listing := getRaw(t, c, ts.URL+"/instances")
	stop()

	srv2, ts2, stop2 := openDurable(t, cfg)
	defer stop2()
	if got := getRaw(t, ts2.Client(), ts2.URL+"/instances"); string(got) != string(listing) {
		t.Errorf("listing drifted across snapshot recovery:\n before: %s\n after:  %s", listing, got)
	}
	if rec, _ := srv2.Recovery(); rec == nil || rec.SnapshotSeq == 0 {
		t.Errorf("recovery did not use the snapshot: %+v", rec)
	}
}

// TestBootCompactsReplayedBacklog: records replayed at boot count against
// the compaction threshold, so a write-idle server does not re-replay the
// same backlog on every restart.
func TestBootCompactsReplayedBacklog(t *testing.T) {
	dir := t.TempDir()
	_, ts, stop := openDurable(t, Config{Workers: 1, Queue: 8, DataDir: dir, CompactEvery: 1000})
	c := ts.Client()
	do(t, c, "PUT", ts.URL+"/instances/a", testInstanceJSON(t, 3, 30, 1), http.StatusCreated, nil)
	for i := 0; i < 5; i++ {
		do(t, c, "PATCH", ts.URL+"/instances/a",
			jsonBody(t, seio.MutateRequest{Activity: []seio.CellUpdate{{User: i, Index: 0, Value: 0.5}}}),
			http.StatusOK, nil)
	}
	stop()

	// Reopen with the threshold below the replayed backlog: compaction must
	// fire at boot with no further writes.
	srv2, _, stop2 := openDurable(t, Config{Workers: 1, Queue: 8, DataDir: dir, CompactEvery: 3})
	defer stop2()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if srv2.walStats().Compactions >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("boot-time backlog never compacted")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobRestoreSubmitRecords pins the crash semantics of the twice-logged
// jobs: a submit record alone (crash mid-sweep) recovers the job as
// cancelled under its original ID and advances the ID sequence so new
// submissions can never alias it; a terminal record supersedes the submit
// form; and a late submit record never downgrades a job the snapshot
// already finished.
func TestJobRestoreSubmitRecords(t *testing.T) {
	js := NewJobs(time.Minute)
	running := seio.JobStatusMsg{
		ID: "job-3", Status: seio.JobRunning,
		Cells: []seio.JobCellMsg{{Algorithm: "HOR", K: 2, State: seio.CellQueued}},
	}
	done := seio.JobStatusMsg{
		ID: "job-3", Status: seio.JobDone,
		Cells: []seio.JobCellMsg{{Algorithm: "HOR", K: 2, State: seio.CellDone, Result: &seio.SolveResponse{K: 2}}},
	}

	// Submit record only: recovered as cancelled, ID sequence advanced.
	js.restore(3, running, 0)
	j, err := js.Get("job-3")
	if err != nil {
		t.Fatal(err)
	}
	if st := j.status(true); st.Status != seio.JobCancelled || st.Counts.Cancelled != 1 {
		t.Fatalf("crashed-in-flight job recovered as %q (%+v), want cancelled", st.Status, st.Counts)
	}
	if js.seqSnapshot() != 3 {
		t.Fatalf("ID sequence %d after submit-record restore, want 3 (job-3 must not be reissued)", js.seqSnapshot())
	}

	// The finish record (later in the log) supersedes the submit form.
	js.restore(3, done, time.Now().UnixMilli())
	j, _ = js.Get("job-3")
	if st := j.status(true); st.Status != seio.JobDone || st.Cells[0].Result == nil {
		t.Fatalf("terminal record did not supersede the submit form: %+v", st)
	}

	// A submit record replayed after the snapshot's finished form (seal
	// overlap) must not downgrade it.
	js.restore(3, running, 0)
	j, _ = js.Get("job-3")
	if st := j.status(true); st.Status != seio.JobDone {
		t.Fatalf("submit record downgraded a finished job to %q", st.Status)
	}

	// A finish record whose job the live server already TTL-purged must
	// stay purged (retention counts from the ORIGINAL finish wall-time),
	// while its ID sequence value still advances.
	expired := done
	expired.ID = "job-7"
	expiredSubmit := running
	expiredSubmit.ID = "job-7"
	// Submit form first (log order), then the expired finish record: the
	// finish must evict the submit-form restoration.
	js.restore(7, expiredSubmit, 0)
	js.restore(7, expired, time.Now().Add(-2*time.Minute).UnixMilli())
	if _, err := js.Get("job-7"); err == nil {
		t.Fatal("TTL-expired job resurrected by replay (submit before finish)")
	}
	// Reverse order (expired form in the snapshot, submit record in the
	// replayed segment): the blacklist must block the resurrection.
	js.restore(7, expired, time.Now().Add(-2*time.Minute).UnixMilli())
	js.restore(7, expiredSubmit, 0)
	if _, err := js.Get("job-7"); err == nil {
		t.Fatal("TTL-expired job resurrected by replay (finish before submit)")
	}
	if js.seqSnapshot() != 7 {
		t.Fatalf("ID sequence %d after expired-job restore, want 7", js.seqSnapshot())
	}

	// Snapshots carry ACTIVE jobs too (in running form): their submit
	// record may live in a segment the compaction deletes, and without a
	// snapshot copy a crash before the finish record would 404 the ID.
	ctx, cancelActive := context.WithCancel(context.Background())
	defer cancelActive()
	active := &Job{
		id: "job-9", seq: 9, js: js, ctx: ctx, cancel: cancelActive,
		created: time.Now(),
		cells:   []*jobCell{{algorithm: "ALG", k: 2, state: seio.CellRunning}},
	}
	js.mu.Lock()
	js.m[active.id] = active
	js.seq = 9
	js.mu.Unlock()
	dump := js.dumpJobs()
	if len(dump) != 2 {
		t.Fatalf("dumpJobs returned %d records, want 2 (terminal + active)", len(dump))
	}
	if got := dump[1]; got.Seq != 9 || got.Status.Status != seio.JobRunning {
		t.Fatalf("active job dumped as %+v, want running seq 9", got)
	}
}

// TestMemoryOnlyUnchanged pins the default: no -data-dir means no WAL, no
// files, and the persist metrics say so.
func TestMemoryOnlyUnchanged(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, Queue: 4})
	c := ts.Client()
	do(t, c, "PUT", ts.URL+"/instances/a", testInstanceJSON(t, 3, 20, 1), http.StatusCreated, nil)
	if rec, _ := srv.Recovery(); srv.wal != nil || rec != nil {
		t.Errorf("memory-only server reports persistence: wal %v, recovery %+v", srv.wal, rec)
	}
	vals := registryValues(t, srv)
	if vals["sesd_wal_enabled"] != 0 || vals["sesd_wal_appends_total"] != 0 {
		t.Errorf("memory-only server reports WAL activity: enabled %v, appends %v",
			vals["sesd_wal_enabled"], vals["sesd_wal_appends_total"])
	}
}

// TestBadDataDirFailsConstruction: recovery problems must fail New, not
// serve from a partial state.
func TestBadDataDirFailsConstruction(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := New(Config{Workers: 1, Queue: 1, DataDir: file}); err == nil {
		s.Close()
		t.Fatal("New accepted a data dir that is a regular file")
	}
}
