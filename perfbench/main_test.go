package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"mcfs"
	"mcfs/internal/obs"
)

// TestCatalogue pins the emitted metric names and units to BENCHMARK.json.
func TestCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics emitted, BENCHMARK.json lists %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: emitted %s [%s], BENCHMARK.json %s [%s]", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	compare("end_to_end", endToEnd, spec.EndToEnd)
	compare("per_layer", perLayer, spec.PerLayer)
}

// TestShortWorkloads runs a short pass of every workload in both modes
// and checks the result line's shape.
func TestShortWorkloads(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "mcfsd")
	build := exec.Command("go", "build", "-o", bin, "mcfs/cmd/mcfsd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build mcfsd: %v\n%s", err, out)
	}
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{
				workload: name, seed: 3, seconds: time.Second, trace: trace,
				mcfsd: bin, workDir: dir, short: true,
			}
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			res := rep.result(trace)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d %v", name, trace, res.Correct, res.Attempted, res.Failed, rep.problems)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				v, ok := res.Metrics[d.name]
				if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v", name, trace, d.name, v)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", name, d.name, v.Value)
				}
			}
		}
	}
}

// TestExactReferencesExhaustive checks every recorded exact-small
// optimum against full enumeration of the k-subsets.
func TestExactReferencesExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("enumerates every 4-subset of 14 candidates per instance")
	}
	for seed, ref := range exactRefs {
		inst, err := aalborgInstance(seed)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := mcfs.SolveExhaustive(inst, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sol.Objective != ref {
			t.Errorf("seed %d: exhaustive optimum %d, recorded %d", seed, sol.Objective, ref)
		}
	}
}

func TestDeltaQuantile(t *testing.T) {
	before := &promScrape{buckets: map[string][]promBucket{"assign": {{0.001, 10}, {math.Inf(1), 10}}}}
	// 10 new requests: 3 up to 1 ms (cum 13), 7 more up to 4 ms.
	after := &promScrape{buckets: map[string][]promBucket{"assign": {{0.001, 13}, {0.004, 20}, {math.Inf(1), 20}}}}
	if got := deltaQuantile(before, after, "assign", 0.5); got != 4 {
		t.Errorf("p50 of the delta = %v ms, want 4", got)
	}
	if got := deltaQuantile(before, after, "assign", 0.3); got != 1 {
		t.Errorf("p30 of the delta = %v ms, want 1", got)
	}
}

// TestTraceCapDetected checks that a tree cut off by obs's span cap is
// reported as truncated while counters keep their full totals.
func TestTraceCapDetected(t *testing.T) {
	rec := obs.New()
	root := rec.Phase("wma/solve")
	for i := 0; i < traceCap+10; i++ {
		rec.Phase("wma/assign").End()
		rec.Add(obs.WMAIterations, 1)
	}
	root.End()
	var st spanTotals
	st.add(rec)
	ct := counterTotals{}
	ct.add(rec)
	rep := newReport()
	emitTrace(rep, st, ct)
	if rep.layer["trace.truncated"] != 1 || st.spans != traceCap {
		t.Errorf("truncated=%v spans=%d, want 1 and %d", rep.layer["trace.truncated"], st.spans, traceCap)
	}
	if got := rep.layer["core.wma_iterations"]; got != traceCap+10 {
		t.Errorf("counts must come from the counters past the cap: got %v", got)
	}
}

func TestWindowRate(t *testing.T) {
	// Events every 10 ms, with one 500 ms stall: the stalled window is
	// one sample of many and leaves the median at 100 events per second.
	var ends []time.Duration
	at := time.Duration(0)
	for i := 0; i < 10*rateWindow; i++ {
		at += 10 * time.Millisecond
		if i == 3*rateWindow+5 {
			at += 500 * time.Millisecond
		}
		ends = append(ends, at)
	}
	if got := windowRate(ends); math.Abs(got-100) > 1e-6 {
		t.Errorf("median window rate %v, want 100", got)
	}
}
