package assign

import (
	"context"
	"strconv"
	"testing"

	"diacap/internal/core"
	"diacap/internal/latency"
	"diacap/internal/obs"
)

// transitStubInstance builds a metric instance from the transit-stub
// topology generator: transit routers become servers, a slice of stub
// hosts become clients.
func transitStubInstance(t testing.TB, seed int64) *core.Instance {
	t.Helper()
	m, roles, err := latency.TransitStub(latency.DefaultTransitStub(150), seed)
	if err != nil {
		t.Fatal(err)
	}
	var servers, clients []int
	for i, isTransit := range roles.Transit {
		if isTransit {
			servers = append(servers, i)
		} else if len(clients) < 120 {
			clients = append(clients, i)
		}
	}
	in, err := core.NewInstanceTrusted(m, servers, clients)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// tracedRecord runs fn with a span from an always-sampling tracer and
// returns the span's completed record.
func tracedRecord(t testing.TB, fn func(sp *obs.Span)) obs.SpanRecord {
	t.Helper()
	tr := obs.NewTracer(obs.TracerOptions{SampleRate: 1, Capacity: 1, Seed: 1})
	_, sp := tr.Root(context.Background(), "assign.test")
	fn(sp)
	sp.End()
	recs := tr.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("tracer retained %d spans, want 1", len(recs))
	}
	return recs[0]
}

// attrValue returns the rendered value of ev's attr key.
func attrValue(t testing.TB, ev obs.SpanEvent, key string) string {
	t.Helper()
	for _, a := range ev.Attrs {
		if a.Key == key {
			return a.Value()
		}
	}
	t.Fatalf("event %s has no %q attr: %v", ev.Name, key, ev.Attrs)
	return ""
}

// attrF64 parses a float attr; the shortest round-trip rendering gives
// back the recorded bits exactly.
func attrF64(t testing.TB, ev obs.SpanEvent, key string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(attrValue(t, ev, key), 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func attrInt(t testing.TB, ev obs.SpanEvent, key string) int {
	t.Helper()
	v, err := strconv.Atoi(attrValue(t, ev, key))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// monotoneNonIncreasing reports whether v never increases by more than
// tol between consecutive entries — the paper's Section IV-D guarantee
// for the Distributed-Greedy D trajectory.
func monotoneNonIncreasing(v []float64, tol float64) bool {
	for i := 1; i < len(v); i++ {
		if v[i] > v[i-1]+tol {
			return false
		}
	}
	return true
}

func TestDGHookTrajectoryMonotone(t *testing.T) {
	// The D trajectory Distributed-Greedy records as span events must be
	// monotone non-increasing (Section IV-D) and must agree with the
	// algorithm's own Trace.
	for seed := int64(1); seed <= 4; seed++ {
		in := transitStubInstance(t, seed)
		var a core.Assignment
		var moveTrace *Trace
		rec := tracedRecord(t, func(sp *obs.Span) {
			var err error
			a, moveTrace, err = DistributedGreedy{Span: sp}.AssignWithTrace(in, nil)
			if err != nil {
				t.Fatal(err)
			}
		})

		events := rec.Events
		if len(events) != 1+len(moveTrace.DAfter) {
			t.Fatalf("seed %d: %d events, Trace has %d moves", seed, len(events), len(moveTrace.DAfter))
		}
		if events[0].Name != "dg.init" {
			t.Fatalf("seed %d: first event %q, want dg.init", seed, events[0].Name)
		}
		if got := attrF64(t, events[0], "d"); got != moveTrace.InitialD {
			t.Fatalf("seed %d: dg.init d = %v, Trace InitialD = %v", seed, got, moveTrace.InitialD)
		}
		traj := []float64{moveTrace.InitialD}
		for i, ev := range events[1:] {
			if ev.Name != "dg.move" {
				t.Fatalf("seed %d: event %d is %q, want dg.move", seed, i+1, ev.Name)
			}
			if step := attrInt(t, ev, "step"); step != i+1 {
				t.Fatalf("seed %d: move %d has step %d", seed, i+1, step)
			}
			d := attrF64(t, ev, "d")
			if d != moveTrace.DAfter[i] {
				t.Fatalf("seed %d: move %d d = %v, Trace DAfter = %v", seed, i+1, d, moveTrace.DAfter[i])
			}
			if c := attrInt(t, ev, "client"); c != moveTrace.Moves[i] {
				t.Fatalf("seed %d: move %d client = %d, Trace Moves = %d", seed, i+1, c, moveTrace.Moves[i])
			}
			traj = append(traj, d)
		}
		if !monotoneNonIncreasing(traj, 1e-9) {
			t.Fatalf("seed %d: event trajectory not monotone non-increasing: %v", seed, traj)
		}
		last := traj[len(traj)-1]
		if got := in.MaxInteractionPath(a); got != last {
			t.Fatalf("seed %d: final event D = %v, assignment D = %v", seed, last, got)
		}
	}
}

func TestGreedyHookBatches(t *testing.T) {
	in := transitStubInstance(t, 7)
	var a core.Assignment
	rec := tracedRecord(t, func(sp *obs.Span) {
		var err error
		if a, err = (Greedy{Span: sp}).Assign(in, nil); err != nil {
			t.Fatal(err)
		}
	})
	if len(rec.Events) == 0 {
		t.Fatal("no batch events recorded")
	}
	assigned := 0
	for i, ev := range rec.Events {
		if ev.Name != "greedy.batch" {
			t.Fatalf("event %d is %q, want greedy.batch", i, ev.Name)
		}
		dn := attrInt(t, ev, "deltaN")
		if dn <= 0 {
			t.Fatalf("event %d Δn = %d, want positive", i, dn)
		}
		if dl := attrF64(t, ev, "deltaL"); dl < 0 {
			t.Fatalf("event %d Δl = %v, want non-negative", i, dl)
		}
		assigned += dn
	}
	// The batch sizes must add up to the full client set: every client is
	// assigned in exactly one amortized batch pick.
	if assigned != in.NumClients() {
		t.Fatalf("batches cover %d clients, instance has %d", assigned, in.NumClients())
	}
	final := attrF64(t, rec.Events[len(rec.Events)-1], "d")
	if got := in.MaxInteractionPath(a); got != final {
		t.Fatalf("last batch event D = %v, assignment D = %v", final, got)
	}
}

func TestWithSpan(t *testing.T) {
	in := fig4Instance(t)
	for _, alg := range []Algorithm{Greedy{}, NewDistributedGreedy(), Anneal{Seed: 1, Steps: 200}} {
		// run records a traced run, then (when again is set) a run of
		// the original value into the same span.
		run := func(again bool) obs.SpanRecord {
			return tracedRecord(t, func(sp *obs.Span) {
				traced, ok := WithSpan(alg, sp)
				if !ok {
					t.Fatalf("%s: WithSpan not supported", alg.Name())
				}
				if traced.Name() != alg.Name() {
					t.Fatalf("traced name = %q, want %q", traced.Name(), alg.Name())
				}
				if _, err := traced.Assign(in, nil); err != nil {
					t.Fatal(err)
				}
				if again {
					if _, err := alg.Assign(in, nil); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
		rec := run(false)
		if len(rec.Events) == 0 && len(rec.Attrs) == 0 {
			t.Fatalf("%s: traced run recorded nothing", alg.Name())
		}
		// The original value must stay untouched: running it adds
		// nothing to the span.
		if both := run(true); len(both.Events) != len(rec.Events) || len(both.Attrs) != len(rec.Attrs) {
			t.Fatalf("%s: untraced original recorded into the span", alg.Name())
		}
	}

	if _, ok := WithSpan(NearestServer{}, nil); ok {
		t.Fatal("NearestServer should not claim span support")
	}
}

// spanPerRun runs Greedy with a fresh sampled span per Assign, as the
// service does for a sampled request.
type spanPerRun struct{ tr *obs.Tracer }

func (spanPerRun) Name() string { return "Greedy" }

func (r spanPerRun) Assign(in *core.Instance, caps core.Capacities) (core.Assignment, error) {
	_, sp := r.tr.Root(context.Background(), "service.compute")
	defer sp.End()
	return Greedy{Span: sp}.Assign(in, caps)
}

// BenchmarkAssign is the untraced hot path (nil span: one pointer
// comparison per emission site); BenchmarkAssignTraced runs the same
// workload recording into a sampled span. The difference is the whole
// cost of the observability layer on the assignment path.
func BenchmarkAssign(b *testing.B) { benchAlgorithm(b, Greedy{}) }

func BenchmarkAssignTraced(b *testing.B) {
	benchAlgorithm(b, spanPerRun{obs.NewTracer(obs.TracerOptions{SampleRate: 1, Capacity: 64, Seed: 1})})
}
