package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/seio"
)

// tinySizes shrink every workload to a smoke test's scale.
var tinySizes = sizes{
	setups:             2,
	mixSetups:          2,
	denseUsers:         400,
	denseK:             6,
	denseTracedRounds:  1,
	mixUsers:           200,
	mixK:               4,
	mixRate:            100,
	mixLagBound:        time.Second,
	sparseUsers:        3000,
	sparseEvents:       30,
	sparseIntervals:    5,
	sparseDensity:      0.2,
	sparseK:            5,
	sparseTracedCycles: 2,
}

func tinyRun(t *testing.T, workload string, traced bool, tamper func(any)) (*Result, map[string]any) {
	t.Helper()
	cfg := &config{
		workload: workload,
		seed:     7,
		measure:  400 * time.Millisecond,
		traced:   traced,
		out:      t.TempDir(),
		sizes:    tinySizes,
		tamper:   tamper,
	}
	res, err := workloads[workload](context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var out bytes.Buffer
	if err := res.Print(&out); err != nil {
		t.Fatalf("%s: print: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not JSON: %v\n%s", workload, err, out.String())
	}
	return res, last
}

// TestSmoke runs every workload untraced and traced at tiny scale and checks
// that each run emits exactly its metric names, each with a unit, and that
// every output checked out.
func TestSmoke(t *testing.T) {
	for _, workload := range []string{"solve-dense", "serve-mixed", "resolve-sparse"} {
		for _, traced := range []bool{false, true} {
			res, last := tinyRun(t, workload, traced, nil)
			want := endToEnd
			if traced {
				want = layerMetrics
			}
			if res.Failed != 0 || len(res.Invalid) != 0 || res.Attempted == 0 || last["correct"] != true {
				t.Fatalf("%s traced=%v: attempted %d failed %d invalid %v errors %v", workload, traced, res.Attempted, res.Failed, res.Invalid, res.Errors)
			}
			metrics, _ := last["metrics"].(map[string]any)
			if len(metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", workload, traced, len(metrics), len(want))
			}
			for _, m := range want {
				v, ok := metrics[m.name].(map[string]any)
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", workload, traced, m.name)
					continue
				}
				if _, ok := v["value"].(float64); !ok || v["unit"] != m.unit || m.unit == "" {
					t.Errorf("%s traced=%v: metric %s = %v, want a value with unit %q", workload, traced, m.name, v, m.unit)
				}
			}
			if !traced {
				rate := -1.0
				for _, m := range res.Named {
					if m.Name == "error_rate" {
						rate = m.Value
					}
				}
				if rate != 0 {
					t.Errorf("%s: error_rate %v, want 0", workload, rate)
				}
			} else if len(res.ClientSpans) == 0 {
				t.Errorf("%s: traced run recorded no spans", workload)
			}
		}
	}
}

// TestCorruptOutputRaisesErrorRate corrupts every output before it is
// checked and expects each workload to count the wrong outputs.
func TestCorruptOutputRaisesErrorRate(t *testing.T) {
	corrupt := func(out any) {
		switch v := out.(type) {
		case *algo.Result:
			v.Utility++
		case *[]byte:
			*v = (*v)[:len(*v)/2]
		case *seio.ResolveEvent:
			v.Instance.Version++
		default:
			t.Errorf("unexpected output type %T", out)
		}
	}
	for _, workload := range []string{"solve-dense", "serve-mixed", "resolve-sparse"} {
		res, last := tinyRun(t, workload, false, corrupt)
		if res.Failed == 0 || res.errorRate() == 0 || last["correct"] != false {
			t.Errorf("%s: corrupted outputs gave failed=%d error_rate=%v correct=%v", workload, res.Failed, res.errorRate(), last["correct"])
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "solve-dense", "--trace", "2"},
		{"--workload", "solve-dense", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want 2 and no output", args, code, stdout.String())
		}
	}
}
