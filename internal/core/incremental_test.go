package core_test

// Differential battery for the incremental D engine: randomized
// join/leave/migrate sequences where every step's D must be
// bit-identical to a from-scratch MaxInteractionPath and to the scalar
// eccentricity reference, and must agree with the client-pair walk
// MaxPathReference at the repo's 1e-9 cross-form tolerance (the two
// decompositions associate the witness sum differently — see
// differential_test.go). Per-server eccentricities and loads are also
// checked bit-for-bit against Eccentricities and Loads, because the
// shard plane reconciles the global D from exactly those
// eccentricities.

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"diacap/internal/core"
	"diacap/internal/latency"
	"diacap/internal/testkit"
)

// incCheck drives one randomized op sequence through an evaluator,
// checking every D against a from-scratch MaxInteractionPath of the
// same assignment. refEvery > 0 additionally checks eccPathReference,
// MaxPathReference, the eccentricities and the loads every refEvery
// ops.
func incCheck(t *testing.T, in *core.Instance, seed int64, ops, refEvery int) {
	t.Helper()
	inc, err := in.NewEvaluator(core.NewAssignment(in.NumClients()))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	var active, inactive []int
	for c := 0; c < in.NumClients(); c++ {
		inactive = append(inactive, c)
	}
	for op := 0; op < ops; op++ {
		var d float64
		switch k := rng.Intn(3); {
		case k == 0 && len(inactive) > 0: // join
			i := rng.Intn(len(inactive))
			c := inactive[i]
			s := rng.Intn(in.NumServers())
			d, err = inc.ApplyJoin(c, s)
			if err != nil {
				t.Fatalf("op %d: join(%d,%d): %v", op, c, s, err)
			}
			inactive[i] = inactive[len(inactive)-1]
			inactive = inactive[:len(inactive)-1]
			active = append(active, c)
		case k == 1 && len(active) > 0: // leave
			i := rng.Intn(len(active))
			c := active[i]
			d, err = inc.ApplyLeave(c)
			if err != nil {
				t.Fatalf("op %d: leave(%d): %v", op, c, err)
			}
			active[i] = active[len(active)-1]
			active = active[:len(active)-1]
			inactive = append(inactive, c)
		case len(active) > 0: // migrate (sometimes a no-op on purpose)
			c := active[rng.Intn(len(active))]
			s := rng.Intn(in.NumServers())
			d, err = inc.ApplyMove(c, s)
			if err != nil {
				t.Fatalf("op %d: migrate(%d,%d): %v", op, c, s, err)
			}
		default:
			continue
		}
		a := inc.Assignment()
		checkBitsEqual(t, "incremental D vs MaxInteractionPath", d, in.MaxInteractionPath(a))
		if refEvery > 0 && op%refEvery == 0 {
			checkBitsEqual(t, "incremental D vs ecc reference", d, eccPathReference(in, a))
			if ref := in.MaxPathReference(a); math.Abs(d-ref) > 1e-9 {
				t.Fatalf("op %d: incremental D %v vs MaxPathReference %v: |diff| %g > 1e-9",
					op, d, ref, math.Abs(d-ref))
			}
			checkEvaluatorState(t, in, inc)
		}
	}
}

// checkEvaluatorState checks every eccentricity and load of ev
// against a from-scratch computation over its assignment.
func checkEvaluatorState(t *testing.T, in *core.Instance, ev *core.Evaluator) {
	t.Helper()
	a := ev.Assignment()
	ecc, loads := in.Eccentricities(a), in.Loads(a)
	for s := 0; s < in.NumServers(); s++ {
		checkBitsEqual(t, "incremental eccentricity", ev.Eccentricity(s), ecc[s])
		if ev.Load(s) != loads[s] {
			t.Fatalf("load[%d] = %d, from scratch %d", s, ev.Load(s), loads[s])
		}
	}
}

// TestIncrementalDifferential is the acceptance battery: over 10k
// randomized join/leave/migrate ops on synthetic instances (full
// reference checks on every op), plus a Meridian-scale sequence.
func TestIncrementalDifferential(t *testing.T) {
	for _, tc := range []struct {
		nodes, servers int
		seed           int64
		ops, refEvery  int
	}{
		{nodes: 60, servers: 6, seed: 1, ops: 4000, refEvery: 1},
		{nodes: 120, servers: 12, seed: 2, ops: 4000, refEvery: 1},
		{nodes: 200, servers: 25, seed: 3, ops: 4000, refEvery: 5},
	} {
		m, err := latency.SyntheticInternet(latency.DefaultConfig(tc.nodes), tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		in := diffInstance(t, m, tc.servers, tc.seed)
		incCheck(t, in, tc.seed+100, tc.ops, tc.refEvery)
	}
}

// TestIncrementalDifferentialMeridian exercises the engine at serving
// scale (1796 nodes, 80 servers) where the heap and witness-cache
// machinery actually matters.
func TestIncrementalDifferentialMeridian(t *testing.T) {
	if testing.Short() {
		t.Skip("meridian-scale differential in -short mode")
	}
	in := diffInstance(t, latency.MeridianLike(1), 80, 7)
	incCheck(t, in, 11, 3000, 50)
}

// TestIncrementalFromWarmState builds an evaluator over an assignment
// that another evaluator reached through churn, then keeps both
// checked against from-scratch recomputes.
func TestIncrementalFromWarmState(t *testing.T) {
	m := latency.ScaledLike(150, 9)
	in := diffInstance(t, m, 10, 9)
	a := diffAssignment(in, 10, 0.3)
	ev, err := in.NewEvaluator(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		ev.Move(rng.Intn(in.NumClients()), rng.Intn(in.NumServers()))
	}
	warm, err := in.NewEvaluator(ev.Assignment())
	if err != nil {
		t.Fatal(err)
	}
	checkBitsEqual(t, "D at build time", warm.D(), in.MaxInteractionPath(ev.Assignment()))
	checkBitsEqual(t, "D of the churned evaluator", ev.D(), warm.D())
	for i := 0; i < 2000; i++ {
		c := rng.Intn(in.NumClients())
		s := rng.Intn(in.NumServers() + 1)
		if s == in.NumServers() {
			s = core.Unassigned
		}
		checkBitsEqual(t, "post-build move", warm.Move(c, s), ev.Move(c, s))
		checkBitsEqual(t, "post-build D", warm.D(), in.MaxInteractionPath(warm.Assignment()))
	}
	checkEvaluatorState(t, in, warm)
}

// TestIncrementalPeekMove checks PeekMove parity and neutrality: a peek
// returns the D of the moved assignment and changes neither D, the
// assignment, nor any eccentricity.
func TestIncrementalPeekMove(t *testing.T) {
	m := latency.ScaledLike(120, 3)
	in := diffInstance(t, m, 8, 3)
	ev, err := in.NewEvaluator(diffAssignment(in, 4, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		c, s := rng.Intn(in.NumClients()), rng.Intn(in.NumServers())
		a := ev.Assignment()
		d := ev.D()
		moved := a.Clone()
		moved[c] = s
		checkBitsEqual(t, "peek parity", ev.PeekMove(c, s), in.MaxInteractionPath(moved))
		checkBitsEqual(t, "D after peek", ev.D(), d)
		if ev.ServerOf(c) != a[c] {
			t.Fatalf("peek mutated assignment of client %d", c)
		}
		if i%50 == 0 {
			checkEvaluatorState(t, in, ev)
		}
		if rng.Intn(4) == 0 {
			ev.Move(c, s)
		}
	}
}

// TestIncrementalPeekMoveExactReadOnly checks PeekMove against a
// from-scratch D of the moved assignment on random states, covering a
// join (c unassigned), a leave (s = Unassigned), and a move of a
// server's unique farthest client, and checks that a peek moves no work
// counter and allocates nothing.
func TestIncrementalPeekMoveExactReadOnly(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		m := latency.ScaledLike(90, seed)
		in := diffInstance(t, m, 3+int(seed), seed)
		ev, err := in.NewEvaluator(diffAssignment(in, seed, 0.25))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed + 40))
		for round := 0; round < 40; round++ {
			for _, p := range peekCases(in, ev, rng) {
				moved := ev.Assignment()
				moved[p.c] = p.s
				want := in.MaxInteractionPath(moved)
				before := ev.Stats()
				d := ev.D()
				checkBitsEqual(t, p.kind+" peek", ev.PeekMove(p.c, p.s), want)
				if ev.Stats() != before {
					t.Fatalf("seed %d: %s peek(%d,%d) did work: %+v -> %+v",
						seed, p.kind, p.c, p.s, before, ev.Stats())
				}
				checkBitsEqual(t, p.kind+" D after peek", ev.D(), d)
				if !testkit.RaceEnabled {
					if allocs := testing.AllocsPerRun(20, func() { ev.PeekMove(p.c, p.s) }); allocs != 0 {
						t.Fatalf("%s peek allocates %.1f times per run", p.kind, allocs)
					}
				}
			}
			// Churn the state between rounds.
			c := rng.Intn(in.NumClients())
			s := rng.Intn(in.NumServers()+1) - 1
			ev.Move(c, s)
		}
		checkEvaluatorState(t, in, ev)
	}
}

type peekCase struct {
	kind string
	c, s int
}

// peekCases picks a join, a leave, a random move and, when one exists,
// a move of a server's unique farthest client.
func peekCases(in *core.Instance, ev *core.Evaluator, rng *rand.Rand) []peekCase {
	var out []peekCase
	var assigned, unassigned []int
	for c := 0; c < in.NumClients(); c++ {
		if ev.ServerOf(c) == core.Unassigned {
			unassigned = append(unassigned, c)
		} else {
			assigned = append(assigned, c)
		}
	}
	if len(unassigned) > 0 {
		out = append(out, peekCase{"join", unassigned[rng.Intn(len(unassigned))], rng.Intn(in.NumServers())})
	}
	if len(assigned) == 0 {
		return out
	}
	c := assigned[rng.Intn(len(assigned))]
	out = append(out, peekCase{"leave", c, core.Unassigned}, peekCase{"move", c, rng.Intn(in.NumServers())})
	for _, k := range rng.Perm(in.NumServers()) {
		far, n := -1, 0
		for _, j := range assigned {
			if ev.ServerOf(j) == k && math.Float64bits(in.ClientServerDist(j, k)) == math.Float64bits(ev.Eccentricity(k)) {
				far, n = j, n+1
			}
		}
		if n == 1 {
			out = append(out,
				peekCase{"farthest move", far, rng.Intn(in.NumServers())},
				peekCase{"farthest leave", far, core.Unassigned})
			break
		}
	}
	return out
}

// TestApplyOpErrors pins the typed errors of the delta API.
func TestApplyOpErrors(t *testing.T) {
	m := latency.ScaledLike(40, 1)
	in := diffInstance(t, m, 4, 1)
	ev, err := in.NewEvaluator(core.NewAssignment(in.NumClients()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.ApplyLeave(0); !errors.Is(err, core.ErrNotAssigned) {
		t.Fatalf("leave of inactive client: got %v, want ErrNotAssigned", err)
	}
	if _, err := ev.ApplyMove(0, 1); !errors.Is(err, core.ErrNotAssigned) {
		t.Fatalf("migrate of inactive client: got %v, want ErrNotAssigned", err)
	}
	if _, err := ev.ApplyJoin(0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.ApplyJoin(0, 1); !errors.Is(err, core.ErrAlreadyAssigned) {
		t.Fatalf("double join: got %v, want ErrAlreadyAssigned", err)
	}
	if _, err := ev.ApplyJoin(-1, 0); err == nil {
		t.Fatal("out-of-range client accepted")
	}
	if _, err := ev.ApplyJoin(1, in.NumServers()); err == nil {
		t.Fatal("out-of-range server accepted")
	}
	if _, err := ev.ApplyJoin(1, core.Unassigned); err == nil {
		t.Fatal("join to Unassigned accepted")
	}
	if _, err := ev.ApplyMove(0, core.Unassigned); err == nil {
		t.Fatal("migrate to Unassigned accepted")
	}
}

// TestEvaluatorNoOpMoveDoesNoWork is the regression test for the no-op
// fast path: re-assigning a client to its current server (Move or
// PeekMove) must return the cached D and perform no repair work.
func TestEvaluatorNoOpMoveDoesNoWork(t *testing.T) {
	m := latency.ScaledLike(80, 2)
	in := diffInstance(t, m, 6, 2)
	ev, err := in.NewEvaluator(diffAssignment(in, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	before := ev.D()
	ev.ResetStats()
	for c := 0; c < in.NumClients(); c++ {
		checkBitsEqual(t, "no-op Move return", ev.Move(c, ev.ServerOf(c)), before)
		checkBitsEqual(t, "no-op PeekMove return", ev.PeekMove(c, ev.ServerOf(c)), before)
	}
	if st := ev.Stats(); st != (core.EvaluatorStats{}) {
		t.Fatalf("no-op moves performed repair work: %+v", st)
	}
}

// FuzzIncrementalOps interprets fuzz bytes as an op tape and checks
// every move's D against a from-scratch MaxInteractionPath.
func FuzzIncrementalOps(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 9, 4, 200, 33, 7})
	f.Add(int64(3), []byte{255, 254, 253, 0, 0, 0, 1, 1, 1, 77})
	m := latency.ScaledLike(64, 5)
	f.Fuzz(func(t *testing.T, seed int64, tape []byte) {
		if len(tape) > 512 {
			tape = tape[:512]
		}
		in := diffInstance(t, m, 6, seed%16+1)
		inc, err := in.NewEvaluator(core.NewAssignment(in.NumClients()))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(tape); i += 2 {
			c := int(tape[i]) % in.NumClients()
			s := int(tape[i+1])%(in.NumServers()+1) - 1 // -1 = Unassigned
			peek := inc.PeekMove(c, s)
			got := inc.Move(c, s)
			want := in.MaxInteractionPath(inc.Assignment())
			if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(peek) != math.Float64bits(want) {
				t.Fatalf("op %d: move(%d,%d): incremental %v, peek %v, from scratch %v", i/2, c, s, got, peek, want)
			}
		}
		a := inc.Assignment()
		if math.Float64bits(inc.D()) != math.Float64bits(eccPathReference(in, a)) {
			t.Fatalf("final D %v != ecc reference %v", inc.D(), eccPathReference(in, a))
		}
	})
}
