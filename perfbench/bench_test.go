package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the self-tests check the program
// against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func short(t *testing.T, cfg config) (*result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := benchmark(cfg, &out)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	return res, out.String()
}

// metricUnits maps each metric name to its unit.
func metricUnits(ms map[string]metric) map[string]string {
	u := map[string]string{}
	for n, m := range ms {
		u[n] = m.Unit
	}
	return u
}

func TestSpecMatchesProgram(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}

	// layers.json documents every workload and metric.
	raw, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var notes struct {
		Workloads map[string]any `json:"workloads"`
		EndToEnd  map[string]any `json:"end_to_end"`
		PerLayer  map[string]any `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &notes); err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if notes.Workloads[n] == nil {
			t.Errorf("layers.json: no workload %s", n)
		}
	}
	for _, m := range s.EndToEnd {
		if m.Name == "query_p50_ms" && m.Bound != reconcileBound {
			t.Errorf("reconcileBound %v, query_p50_ms bound %v", reconcileBound, m.Bound)
		}
		if notes.EndToEnd[m.Name] == nil {
			t.Errorf("layers.json: no end-to-end metric %s", m.Name)
		}
	}
	for _, m := range s.PerLayer {
		if notes.PerLayer[m.Name] == nil {
			t.Errorf("layers.json: no per-layer metric %s", m.Name)
		}
	}
	if len(notes.PerLayer) != len(s.PerLayer) || len(notes.EndToEnd) != len(s.EndToEnd) || len(notes.Workloads) != len(names) {
		t.Errorf("layers.json documents entries BENCHMARK.json does not list")
	}
}

// TestShortRuns runs every workload briefly, untraced and traced: every
// output gate passes, every metric BENCHMARK.json lists is printed with
// its unit, and the end-to-end metrics are never 0.
func TestShortRuns(t *testing.T) {
	s := loadSpec(t)
	wantE2E, wantLayer := map[string]string{}, map[string]string{}
	for _, m := range s.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	for _, m := range s.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	for _, wl := range workloadNames() {
		res, out := short(t, config{workload: wl, seed: 3, seconds: 1})
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", wl, res.Correct, res.Attempted, res.Failed, out)
		}
		if got := metricUnits(res.Metrics); !reflect.DeepEqual(got, wantE2E) {
			t.Errorf("%s: end-to-end metrics %v, want %v", wl, got, wantE2E)
		}
		for n, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", wl, n, m.Value)
			}
		}

		res, out = short(t, config{workload: wl, seed: 3, seconds: 2, trace: true})
		if got := metricUnits(res.Metrics); !reflect.DeepEqual(got, wantLayer) {
			t.Errorf("%s traced: per-layer metrics %v, want %v", wl, got, wantLayer)
		}
		// A short traced run has too few samples for the timing
		// reconciliation to be steady; every other gate must pass.
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "# FAILED:") && !strings.Contains(line, "reconcile:") {
				t.Errorf("%s traced: %s", wl, line)
			}
		}
	}
}

// TestCorruptedReferenceTripsGate falsifies each workload's reference
// and expects the output gates to fail the run.
func TestCorruptedReferenceTripsGate(t *testing.T) {
	for _, wl := range workloadNames() {
		res, _ := short(t, config{workload: wl, seed: 2, seconds: 0.3, corruptReference: true})
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted reference gave correct=%v failed=%d", wl, res.Correct, res.Failed)
		}
		if ok := res.Metrics["ok_ratio"].Value; ok >= 1 {
			t.Errorf("%s: ok_ratio %v with a corrupted reference", wl, ok)
		}
	}
}

// TestHeldOutSeed compares seed 1, on which the paper's pin holds, with
// a seed no tuning used: the paper-metric counts per row stay close and
// the latency stays within a factor of two.
func TestHeldOutSeed(t *testing.T) {
	const heldOut = 20261017
	base, _ := short(t, config{workload: "djia-repeat", seed: 1, seconds: 1, trace: true})
	if got := base.Metrics["engine.pred_evals"].Value; got != pinnedPredEvals {
		t.Fatalf("seed 1 pred-evals %v, want %d", got, pinnedPredEvals)
	}
	other, _ := short(t, config{workload: "djia-repeat", seed: heldOut, seconds: 1, trace: true})
	b, o := base.Metrics["engine.evals_per_row"].Value, other.Metrics["engine.evals_per_row"].Value
	if math.Abs(o/b-1) > 0.15 {
		t.Errorf("evals per row: seed 1 %v, seed %d %v", b, heldOut, o)
	}
	for _, wl := range []string{"djia-repeat", "quotes-repeat"} {
		b, _ := short(t, config{workload: wl, seed: 1, seconds: 1})
		o, _ := short(t, config{workload: wl, seed: heldOut, seconds: 1})
		if !o.Correct {
			t.Errorf("%s seed %d: outputs failed their gates", wl, heldOut)
		}
		bp, op := b.Metrics["query_p50_ms"].Value, o.Metrics["query_p50_ms"].Value
		if op > 2*bp || op < bp/2 {
			t.Errorf("%s query_p50_ms: seed 1 %v, seed %d %v", wl, bp, heldOut, op)
		}
	}
}

// TestRestoreKeepsGates runs the workloads whose state grows for more
// than one epoch, untraced and traced: after a restore every gate still
// passes, and in a traced run the mirror still reproduces the DB.
func TestRestoreKeepsGates(t *testing.T) {
	for _, wl := range []string{"djia-adhoc", "quotes-live"} {
		for _, traced := range []bool{false, true} {
			res, out := short(t, config{workload: wl, seed: 4, seconds: 0.1, trace: traced, minEpochs: 2})
			if !strings.Contains(out, "# epochs: 2 of") {
				t.Errorf("%s traced=%v: want 2 epochs\n%s", wl, traced, out)
			}
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(line, "# FAILED:") && !strings.Contains(line, "reconcile:") {
					t.Errorf("%s traced=%v: %s", wl, traced, line)
				}
			}
			if !traced && !res.Correct {
				t.Errorf("%s: correct=false after a restore\n%s", wl, out)
			}
		}
	}
}

// TestPairBySeed pairs runs by seed, not by position: a run missing on
// one side drops only its own seed.
func TestPairBySeed(t *testing.T) {
	mk := func(seed int64, v float64) savedRun {
		return savedRun{workload: "w", seed: seed, res: result{Metrics: map[string]metric{"m": {v, "ms"}}}}
	}
	old := []savedRun{mk(3, 30), mk(1, 10), mk(2, 20), mk(4, 40)}
	nw := []savedRun{mk(4, 41), mk(1, 11), mk(3, 31), mk(3, 32), mk(5, 51)}
	o, n, dropped := pairBySeed(old, nw, "w", "m")
	if !reflect.DeepEqual(o, []float64{10, 30, 40}) || !reflect.DeepEqual(n, []float64{11, 31, 41}) || dropped != 3 {
		t.Errorf("pairBySeed = %v %v dropped %d, want [10 30 40] [11 31 41] dropped 3", o, n, dropped)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, med, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, med, q3)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name     string
		old, nw  []float64
		verdict  string
		higherOK bool
	}{
		{"faster", base, scale(0.8), "better", false},
		{"slower", base, scale(1.2), "worse", false},
		{"same", base, scale(1.01), "within-bound", false},
		{"noisy", noisy, scale(1.0), "unresolved", false},
		{"more throughput", base, scale(1.2), "better", true},
	} {
		if got := judge(tc.old, tc.nw, tc.higherOK, 0.1).verdict; got != tc.verdict {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.verdict)
		}
	}
}
