// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against the service in a server process of its
// own, over loopback TCP, from inputs generated from --seed, checks
// every answer, and prints its metrics as one JSON object on the last
// line of standard output. With --trace 1 it instead replays the same
// inputs through each layer in-process and reports per-layer metrics.
// See README.md.
//
//	bash perfbench/run.sh --workload serve-read --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Workload names.
const (
	wServeRead  = "serve-read"
	wChurnMixed = "churn-mixed"
	wPlan       = "plan"
)

// Load shape. The latency limits define the capacity metrics.
const (
	nominalReadRate  = 1000.0 // read requests per second
	nominalWriteRate = 1000.0 // write ops per second
	readLimitMs      = 10.0   // read p99 limit of a passing capacity rung
	writeLimitMs     = 25.0   // write p99 limit of a passing capacity rung
	setupRounds      = 3      // server set-ups per run; setup_s is their median
	generatorProcs   = 1      // GOMAXPROCS of the generator
	serverProcs      = 2      // GOMAXPROCS of the server (the host's nproc)
	planSetupRounds  = 25     // the planning server starts in milliseconds
	runDeadline      = 170 * time.Second
)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is the sample count behind a quantile, when there is one.
	Samples int `json:"samples,omitempty"`
}

// Result is the last line of standard output.
type Result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]ResultMetric `json:"metrics"`
}

// ResultMetric is a metric on the result line: value and unit only.
type ResultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny runs at the test sizes, not the benchmark's.
	tiny bool
	// outDir receives trace files.
	outDir string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serveMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench serve:", err)
			os.Exit(1)
		}
		return
	}
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "serve-read | churn-mixed | plan")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 30, "measured seconds")
	trace := fs.Int("trace", 0, "1 = per-layer traced run")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	switch *workload {
	case wServeRead, wChurnMixed, wPlan:
	default:
		return nil, fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return nil, errors.New("want --seconds > 0 and --trace 0 or 1")
	}
	return &config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: ".bench_out"}, nil
}

// phasePlan is a run's phases, derived from --seconds.
type phasePlan struct {
	warmup  float64 // seconds of nominal load before timing
	nominal float64 // seconds at the nominal rate
	rung    float64 // seconds per capacity-search rung
}

func planPhases(cfg *config) phasePlan {
	s := cfg.seconds
	return phasePlan{warmup: math.Min(1, s/10), nominal: 0.4 * s, rung: math.Max(0.25, s/30)}
}

// Capacity search: steps of climbStep from the nominal rate — up until
// a rung fails, or down until one passes when the nominal rate fails —
// then bisectRounds geometric bisections between the last passing and
// the first failing rate. The search takes at most maxReadClimb or
// maxWriteClimb steps (about 28× and 9× the nominal rate); one serial
// write connection cannot reach the latter.
const (
	climbStep     = 1.25
	maxReadClimb  = 15
	maxWriteClimb = 10
	bisectRounds  = 3
)

// tapeLen is the number of write ops a churn-mixed run may send: the
// nominal phases plus the longest possible search.
func (p phasePlan) tapeLen() int {
	n := (p.warmup + p.nominal) * nominalWriteRate
	top := nominalWriteRate * math.Pow(climbStep, maxWriteClimb)
	n += (maxWriteClimb + bisectRounds) * top * p.rung
	return int(n) + 1
}

func run(cfg *config) (*Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	runtime.GOMAXPROCS(generatorProcs)
	// The generator keeps every response body until checking; a higher
	// GC target keeps its collections rare during timed phases.
	debug.SetGCPercent(400)

	pp := planPhases(cfg)
	tapeLen := 0
	if cfg.workload == wChurnMixed {
		tapeLen = pp.tapeLen()
	}
	if cfg.trace {
		tapeLen = max(pp.tapeLen(), traceWrites+traceWriteHTTP)
	}
	env := readEnv()
	genStart := time.Now()
	sz := Full
	if cfg.tiny {
		sz = Tiny
	}
	in, err := NewInputs(sz, cfg.seed, tapeLen, 1<<16)
	if err != nil {
		return nil, err
	}
	fmt.Printf("perfbench workload=%s seed=%d trace=%v inputs_sha256=%s generated_in=%.2fs\n",
		cfg.workload, cfg.seed, cfg.trace, in.Hash(), time.Since(genStart).Seconds())
	r := &runner{cfg: cfg, in: in, pp: pp, env: env, metrics: map[string]Metric{}, report: map[string]Metric{}}
	want := endToEnd
	if cfg.trace {
		want = perLayer
		err = r.traced(ctx)
	} else {
		err = r.untraced(ctx)
	}
	if err != nil {
		return nil, err
	}
	if r.failed > 0 {
		// A failed check can leave a metric undefined; the result line
		// still reports the failure, with such metrics at 0.
		for name, m := range r.metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				r.metrics[name] = Metric{Unit: m.Unit}
			}
		}
	}
	if err := checkMetricSet(r.metrics, want); err != nil {
		return nil, err
	}
	r.printReport()
	if r.failed > 0 {
		fmt.Printf("FAILED %d of %d requests; first: %v\n", r.failed, r.attempted, r.firstErr)
	}
	res := &Result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]ResultMetric{}}
	for name, m := range r.metrics {
		res.Metrics[name] = ResultMetric{Value: m.Value, Unit: m.Unit}
	}
	return res, nil
}

// runner carries one run's state.
type runner struct {
	cfg *config
	in  *Inputs
	pp  phasePlan
	env Env

	mu                sync.Mutex // guards the tallies below
	attempted, failed int
	firstErr          error
	// metrics is the result line's metric set; report holds the
	// workload's named metrics for the human-readable report line.
	metrics map[string]Metric
	report  map[string]Metric
	// readItem is the next position in the read schedule.
	readItem int
	// tapePos is the next write op.
	tapePos int
	writes  WriteChecker
}

func (r *runner) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *runner) add(o *Outcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += o.Attempted
	r.failed += o.Failed
	if r.firstErr == nil && o.FirstErr != nil {
		r.firstErr = o.FirstErr
	}
}

// printReport prints the report line. A metric with no samples behind
// it (a quantile of nothing) is left out rather than printed as NaN,
// which JSON cannot carry.
func (r *runner) printReport() {
	finite := map[string]Metric{}
	for name, m := range r.report {
		if !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0) {
			finite[name] = m
		}
	}
	b, err := json.Marshal(struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Env      Env               `json:"env"`
		Metrics  map[string]Metric `json:"metrics"`
	}{r.cfg.workload, r.cfg.seed, r.env, finite})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: report:", err)
		return
	}
	fmt.Printf("report %s\n", b)
}

// setupServers starts the server rounds times, stopping all but the
// last, and records setup_s as the median set-up time.
func (r *runner) setupServers(ctx context.Context, withPlane bool, rounds int) (*serverProc, error) {
	var setups []float64
	var sp *serverProc
	for i := 0; i < rounds; i++ {
		var err error
		if sp, err = startServer(ctx, r.cfg.seed, withPlane, r.cfg.tiny); err != nil {
			return nil, err
		}
		setups = append(setups, sp.Setup.Seconds())
		if i < rounds-1 {
			sp.Stop()
		}
	}
	r.env.ServerGOMAXPROCS = sp.gomaxprocs
	r.setMetric("setup_s", median(setups), "s", len(setups))
	return sp, nil
}
