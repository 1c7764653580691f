package core_test

import (
	"math/rand"
	"testing"

	"diacap/internal/core"
	"diacap/internal/latency"
)

// TestDeltaHookObservesAppliedOps drives a randomized op sequence and
// checks that the hook sees exactly the applied operations, with the
// returned D, and that the per-op work deltas sum to the evaluator's
// cumulative stats.
func TestDeltaHookObservesAppliedOps(t *testing.T) {
	m, err := latency.SyntheticInternet(latency.DefaultConfig(80), 5)
	if err != nil {
		t.Fatal(err)
	}
	in := diffInstance(t, m, 8, 5)
	ev, err := in.NewEvaluator(core.NewAssignment(in.NumClients()))
	if err != nil {
		t.Fatal(err)
	}

	var events []core.DeltaEvent
	ev.SetDeltaHook(func(e core.DeltaEvent) { events = append(events, e) })

	rng := rand.New(rand.NewSource(42))
	var active, inactive []int
	for c := 0; c < in.NumClients(); c++ {
		inactive = append(inactive, c)
	}
	type applied struct {
		op   string
		c, s int
		d    float64
	}
	var want []applied
	for op := 0; op < 500; op++ {
		switch k := rng.Intn(3); {
		case k == 0 && len(inactive) > 0:
			i := rng.Intn(len(inactive))
			c := inactive[i]
			s := rng.Intn(in.NumServers())
			d, err := ev.ApplyJoin(c, s)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, applied{"join", c, s, d})
			inactive[i] = inactive[len(inactive)-1]
			inactive = inactive[:len(inactive)-1]
			active = append(active, c)
		case k == 1 && len(active) > 0:
			i := rng.Intn(len(active))
			c := active[i]
			d, err := ev.ApplyLeave(c)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, applied{"leave", c, core.Unassigned, d})
			active[i] = active[len(active)-1]
			active = active[:len(active)-1]
			inactive = append(inactive, c)
		case k == 2 && len(active) > 0:
			c := active[rng.Intn(len(active))]
			s := rng.Intn(in.NumServers())
			if s == ev.ServerOf(c) {
				continue
			}
			d, err := ev.ApplyMove(c, s)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, applied{"move", c, s, d})
		}
	}
	if len(want) == 0 {
		t.Fatal("no ops applied; widen the sequence")
	}
	if len(events) != len(want) {
		t.Fatalf("hook saw %d events, want %d", len(events), len(want))
	}
	var heap, touches, rescans int
	for i, e := range events {
		w := want[i]
		if e.Op != w.op || e.Client != w.c || e.Server != w.s || e.D != w.d {
			t.Fatalf("event %d = %+v, want op=%s c=%d s=%d d=%v", i, e, w.op, w.c, w.s, w.d)
		}
		if e.HeapOps < 0 || e.PairTouches < 0 || e.PairRescans < 0 {
			t.Fatalf("event %d has negative work deltas: %+v", i, e)
		}
		heap += e.HeapOps
		touches += e.PairTouches
		rescans += e.PairRescans
	}
	st := ev.Stats()
	if heap != st.HeapOps || touches != st.PairTouches || rescans != st.PairRescans {
		t.Fatalf("summed deltas (heap=%d, touches=%d, rescans=%d) != cumulative stats %+v",
			heap, touches, rescans, st)
	}
}

// TestDeltaHookDoesNotChangeResults proves the hook is observation
// only: the same op sequence with and without a hook produces
// bit-identical D values.
func TestDeltaHookDoesNotChangeResults(t *testing.T) {
	m, err := latency.SyntheticInternet(latency.DefaultConfig(60), 9)
	if err != nil {
		t.Fatal(err)
	}
	in := diffInstance(t, m, 6, 9)
	run := func(hook bool) []float64 {
		ev, err := in.NewEvaluator(core.NewAssignment(in.NumClients()))
		if err != nil {
			t.Fatal(err)
		}
		if hook {
			ev.SetDeltaHook(func(core.DeltaEvent) {})
		}
		rng := rand.New(rand.NewSource(7))
		var out []float64
		for c := 0; c < in.NumClients(); c++ {
			d, err := ev.ApplyJoin(c, rng.Intn(in.NumServers()))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, d)
		}
		for i := 0; i < 200; i++ {
			c := rng.Intn(in.NumClients())
			s := rng.Intn(in.NumServers())
			if s == ev.ServerOf(c) {
				continue
			}
			d, err := ev.ApplyMove(c, s)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, d)
		}
		return out
	}
	plain, hooked := run(false), run(true)
	if len(plain) != len(hooked) {
		t.Fatalf("sequence lengths diverge: %d vs %d", len(plain), len(hooked))
	}
	for i := range plain {
		if plain[i] != hooked[i] {
			t.Fatalf("D diverges at op %d: %v (no hook) vs %v (hook)", i, plain[i], hooked[i])
		}
	}
}
