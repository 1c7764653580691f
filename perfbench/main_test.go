package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain lets the test binary play the server process: the runs
// below re-execute it with the "serve" argument, as the benchmark
// binary re-executes itself.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serveMain(os.Args[2:]); err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func tinyConfig(t *testing.T, workload string, seed int64, trace bool) *config {
	t.Helper()
	return &config{workload: workload, seed: seed, seconds: 1, trace: trace, tiny: true, outDir: t.TempDir()}
}

// TestRunTiny runs every workload, untraced and traced, on the tiny
// configuration: each must pass every check and report exactly its
// metric set.
func TestRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("starts server processes")
	}
	for _, w := range []string{wServeRead, wChurnMixed, wPlan} {
		for _, trace := range []bool{false, true} {
			res, err := run(tinyConfig(t, w, 3, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s trace=%v: result does not encode: %v", w, trace, err)
			}
		}
	}
}

// TestExactD runs the workloads whose D is exact for a seed twice.
func TestExactD(t *testing.T) {
	if testing.Short() {
		t.Skip("starts server processes")
	}
	for _, w := range []string{wChurnMixed, wPlan} {
		var ds []float64
		for i := 0; i < 2; i++ {
			res, err := run(tinyConfig(t, w, 5, false))
			if err != nil {
				t.Fatal(err)
			}
			ds = append(ds, res.Metrics["d_ms"].Value)
		}
		if ds[0] != ds[1] || ds[0] <= 0 {
			t.Errorf("%s: d_ms %v then %v, want the same positive value", w, ds[0], ds[1])
		}
	}
}

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"--workload", "plan", "--seed", "9", "--seconds", "3", "--trace", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.workload != wPlan || cfg.seed != 9 || cfg.seconds != 3 || !cfg.trace {
		t.Errorf("parsed %+v", cfg)
	}
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "plan", "--trace", "2"},
		{"--workload", "plan", "--seconds", "0"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("%v: no error", args)
		}
	}
}

func TestStartServerFailsFast(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := startServer(ctx, 1, true, true); err == nil {
		t.Fatal("started under a cancelled context")
	}
}

func TestSearchCapacity(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		limit, base float64
		basePass    bool
	}{{5000, 1000, true}, {400, 1000, false}, {1e9, 1000, true}} {
		got := searchCapacity(ctx, c.base, c.basePass, 10, func(rate float64) bool { return rate <= c.limit })
		top := c.base * math.Pow(climbStep, 10)
		want := math.Min(c.limit, top)
		// Three bisections leave the answer within climbStep^(1/8) below
		// the true limit.
		if got > want || got < want/math.Pow(climbStep, 1.0/8)-1e-9 {
			t.Errorf("limit %v from %v: capacity %v, want just below %v", c.limit, c.base, got, want)
		}
	}
	if got := searchCapacity(ctx, 1000, false, 10, func(float64) bool { return false }); got != 0 {
		t.Errorf("nothing passes: capacity %v, want 0", got)
	}
}

func TestStealAdjusted(t *testing.T) {
	// Four windows: none, a tenth, and more than the cap of the vCPU
	// time stolen, then none.
	cpus := float64(runtime.NumCPU())
	win := stealWindow.Seconds() * cpus
	res := &PhaseResult{Steal: []float64{0, 0.1 * win, 0.9 * win, 0}}
	for w := 0; w < 4; w++ {
		due := time.Duration(w) * stealWindow
		res.Samples = append(res.Samples, Sample{Item: w, Due: due, Done: due + 10*time.Millisecond, Status: http.StatusOK})
	}
	var o Outcome
	o.Tally(res, func(int) int { return 0 }, func(*Sample) error { return nil })
	got := o.StealAdjusted()
	want := []float64{10, 9, 10 * (1 - maxStealShare), 10}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("adjusted latencies %v, want %v", got, want)
			break
		}
	}
}
