package server

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/seio"
)

// legacyDataDir is a data directory written by sesd before the sparse digest
// moved to per-column hashes ("ses-instance-sparse-v2"): one sparse and one
// dense instance, each with a put, interest / competing-interest / activity
// / add_competing mutations, and solve records at the first and the last
// version. Its sparse records carry v1 digests.
const legacyDataDir = "testdata/legacy-datadir"

// readLegacyWAL returns the fixture's records in log order.
func readLegacyWAL(t *testing.T) []*seio.WALRecord {
	t.Helper()
	f, err := os.Open(filepath.Join(legacyDataDir, "wal-0000000000000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []*seio.WALRecord
	for {
		rec, _, err := seio.ReadWALRecord(f)
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
}

// writeLegacyDir writes recs as the single segment of a fresh data dir.
func writeLegacyDir(t *testing.T, recs []*seio.WALRecord) string {
	t.Helper()
	dir := t.TempDir()
	var buf bytes.Buffer
	for _, rec := range recs {
		if _, err := seio.WriteWALRecord(&buf, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.log"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// copyLegacyDir copies the fixture verbatim into a temp dir.
func copyLegacyDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	ents, err := os.ReadDir(legacyDataDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(legacyDataDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLegacyDataDirRecovers boots sesd on the pre-change fixture: versions
// are unchanged, dense digests are the logged ones byte for byte, sparse
// digests are the current (v2) value of the recovered content, the
// recovered cached solves report the store's digest, and a new mutation
// survives a restart.
func TestLegacyDataDirRecovers(t *testing.T) {
	logged := map[string]seio.InstanceInfo{} // the last version each name logged
	for _, rec := range readLegacyWAL(t) {
		switch {
		case rec.Put != nil:
			logged[rec.Put.Name] = seio.InstanceInfo{Version: rec.Put.StoreVersion, Digest: rec.Put.Digest}
		case rec.Mutate != nil:
			logged[rec.Mutate.Name] = seio.InstanceInfo{Version: rec.Mutate.StoreVersion, Digest: rec.Mutate.Digest}
		}
	}
	if len(logged) != 2 || logged["sparse"].Version != 5 || logged["dense"].Version != 5 {
		t.Fatalf("fixture holds %+v, want sparse and dense at version 5", logged)
	}

	cfg := Config{Workers: 2, Queue: 8, DataDir: copyLegacyDir(t)}
	_, ts, stop := openDurable(t, cfg)
	c := ts.Client()
	for name, want := range logged {
		var info seio.InstanceInfo
		doc := getRaw(t, c, ts.URL+"/instances/"+name)
		inst, err := seio.ReadInstance(bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range listInstances(t, c, ts.URL) {
			if i.Name == name {
				info = i
			}
		}
		if info.Version != want.Version {
			t.Errorf("%s: version %d, logged %d", name, info.Version, want.Version)
		}
		fresh := inst.Digest()
		if fresh != info.Digest {
			t.Errorf("%s: store digest %s, fresh digest of its document %s", name, info.Digest, fresh)
		}
		switch name {
		case "dense":
			if info.Digest != want.Digest {
				t.Errorf("dense digest %s, logged %s", info.Digest, want.Digest)
			}
		case "sparse":
			v1, _ := inst.LegacySparseDigest()
			if info.Digest == want.Digest || v1 != want.Digest {
				t.Errorf("sparse digest %s, legacy %s, logged %s: want a v2 digest whose v1 form is the logged one", info.Digest, v1, want.Digest)
			}
		}
		for _, req := range []seio.SolveRequest{{Algorithm: "HOR-I", K: 2}, {Algorithm: "ALG", K: 3}} {
			var sr seio.SolveResponse
			do(t, c, "POST", ts.URL+"/instances/"+name+"/solve", jsonBody(t, req), http.StatusOK, &sr)
			if !sr.Cached {
				t.Errorf("%s %s: recovered solve not served from the cache", name, req.Algorithm)
			}
			if sr.Instance != info {
				t.Errorf("%s %s: cached solve reports %+v, store has %+v", name, req.Algorithm, sr.Instance, info)
			}
		}
	}

	// A new mutation on top of the legacy log round-trips a restart.
	for _, name := range []string{"sparse", "dense"} {
		do(t, c, "PATCH", ts.URL+"/instances/"+name,
			jsonBody(t, seio.MutateRequest{Interest: []seio.CellUpdate{{User: 2, Index: 1, Value: 0.55}}}),
			http.StatusOK, nil)
	}
	listing := getRaw(t, c, ts.URL+"/instances")
	sparseDoc := getRaw(t, c, ts.URL+"/instances/sparse")
	stop()
	_, ts2, stop2 := openDurable(t, cfg)
	defer stop2()
	if got := getRaw(t, ts2.Client(), ts2.URL+"/instances"); !bytes.Equal(got, listing) {
		t.Errorf("listing changed across restart:\n before: %s\n after:  %s", listing, got)
	}
	if got := getRaw(t, ts2.Client(), ts2.URL+"/instances/sparse"); !bytes.Equal(got, sparseDoc) {
		t.Error("sparse document changed across restart")
	}
}

// TestLegacyDataDirTamperedDigestFails: accepting v1 digests must not weaken
// verification — a fixture copy with one altered digest still fails replay,
// for put and mutate records of either representation.
func TestLegacyDataDirTamperedDigestFails(t *testing.T) {
	for _, tc := range []struct {
		name string
		pick func(*seio.WALRecord) *string
	}{
		{"sparse-put", func(r *seio.WALRecord) *string {
			if r.Put != nil && r.Put.Name == "sparse" {
				return &r.Put.Digest
			}
			return nil
		}},
		{"sparse-mutate", func(r *seio.WALRecord) *string {
			if r.Mutate != nil && r.Mutate.Name == "sparse" && r.Mutate.StoreVersion == 3 {
				return &r.Mutate.Digest
			}
			return nil
		}},
		{"dense-mutate", func(r *seio.WALRecord) *string {
			if r.Mutate != nil && r.Mutate.Name == "dense" && r.Mutate.StoreVersion == 5 {
				return &r.Mutate.Digest
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recs := readLegacyWAL(t)
			tampered := 0
			for _, r := range recs {
				if d := tc.pick(r); d != nil {
					flip := "0"
					if (*d)[0] == '0' {
						flip = "1"
					}
					*d = flip + (*d)[1:]
					tampered++
				}
			}
			if tampered != 1 {
				t.Fatalf("tampered %d records, want 1", tampered)
			}
			s, err := New(Config{Workers: 1, Queue: 4, DataDir: writeLegacyDir(t, recs)})
			if err == nil {
				s.Close()
				t.Fatal("replay accepted a tampered digest")
			}
			if !strings.Contains(err.Error(), "does not match logged") {
				t.Fatalf("replay failed for another reason: %v", err)
			}
		})
	}
	// The untampered re-encoding replays, so the failures above are the
	// digest check's.
	s, err := New(Config{Workers: 1, Queue: 4, DataDir: writeLegacyDir(t, readLegacyWAL(t))})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
}

func listInstances(t *testing.T, c *http.Client, base string) []seio.InstanceInfo {
	t.Helper()
	var out struct {
		Instances []seio.InstanceInfo `json:"instances"`
	}
	do(t, c, "GET", base+"/instances", nil, http.StatusOK, &out)
	return out.Instances
}
