package cli

import (
	"bytes"
	"encoding/json"
	"testing"
)

func kernelbenchRows(t *testing.T) []map[string]any {
	t.Helper()
	var out, errb bytes.Buffer
	code := Kernelbench([]string{"-users", "500", "-terms", "1000", "-max-reps", "2", "-json"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	var doc struct {
		Rows []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	return doc.Rows
}

func TestKernelbenchJSON(t *testing.T) {
	rows := kernelbenchRows(t)
	variants := []string{"scalar", "sparse"}
	// Three densities × loops × four denominator cases.
	if want := 3 * len(variants) * 4; len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	seen := map[string]int{}
	for _, r := range rows {
		if r["figure"] != "kernel" || r["xname"] != "density_pct" {
			t.Fatalf("row vocabulary off: figure=%v x_name=%v", r["figure"], r["xname"])
		}
		seen[r["dataset"].(string)+"/"+r["algorithm"].(string)]++
		// Every case scores a real gain, except ASSIGNED at 100% density
		// where Eq. 4 says exactly zero: with no competing interest and
		// every user fully saturated by the interval's assigned event,
		// adding a candidate only redistributes attendance. That zero is a
		// model property worth pinning — a nonzero there would mean the
		// case setup drifted.
		u := r["utility"].(float64)
		if r["algorithm"] == "ASSIGNED" && int(r["x"].(float64)) == 100 {
			if u != 0 {
				t.Errorf("series %v/ASSIGNED at 100%%: utility %v, want exactly 0", r["dataset"], u)
			}
		} else if u <= 0 {
			t.Errorf("series %v/%v: utility %v, want > 0", r["dataset"], r["algorithm"], u)
		}
	}
	for _, v := range variants {
		for _, c := range []string{"FREE", "COMP", "ASSIGNED", "FULL"} {
			if seen[v+"/"+c] != 3 {
				t.Errorf("series %s/%s appears %d times, want 3 (densities)", v, c, seen[v+"/"+c])
			}
		}
	}
}

// TestKernelbenchDeterministic: the gain column (benchdiff's drift gate) is
// bit-stable across runs, the sparse loop's gains equal the scalar loop's
// exactly, and the sparse loop's per-pass work shrinks with density.
func TestKernelbenchDeterministic(t *testing.T) {
	key := func(r map[string]any) string {
		return r["dataset"].(string) + "/" + r["algorithm"].(string) + "/" + r["xname"].(string)
	}
	a, b := kernelbenchRows(t), kernelbenchRows(t)
	gains := map[string]map[int]float64{}
	for i, r := range a {
		if r["utility"] != b[i]["utility"] {
			t.Fatalf("series %s: utility drifted across runs: %v vs %v", key(r), r["utility"], b[i]["utility"])
		}
		v, c, pct := r["dataset"].(string), r["algorithm"].(string), int(r["x"].(float64))
		if gains[c] == nil {
			gains[c] = map[int]float64{}
		}
		if v == "scalar" {
			gains[c][pct] = r["utility"].(float64)
		}
	}
	var sparseWork []float64
	for _, r := range a {
		v, c, pct := r["dataset"].(string), r["algorithm"].(string), int(r["x"].(float64))
		if v != "sparse" {
			continue
		}
		if got := r["utility"].(float64); got != gains[c][pct] {
			t.Errorf("sparse/%s at %d%%: gain %x differs from scalar %x", c, pct, got, gains[c][pct])
		}
		if c == "FREE" {
			sparseWork = append(sparseWork, r["users"].(float64))
		}
	}
	if len(sparseWork) != 3 || !(sparseWork[0] < sparseWork[1] && sparseWork[1] < sparseWork[2]) {
		t.Errorf("sparse per-pass work %v must grow with density", sparseWork)
	}
}
