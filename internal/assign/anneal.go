package assign

import (
	"fmt"
	"math"
	"math/rand"

	"diacap/internal/core"
	"diacap/internal/obs"
)

// Anneal is a simulated-annealing metaheuristic over single-client moves,
// built on the incremental core.Evaluator. Unlike Distributed-Greedy and
// Local-Search, it accepts occasional worsening moves (with probability
// exp(−ΔD/T) under a geometric cooling schedule), so it can cross the
// barriers that trap the greedy descent in local optima. It is the
// strongest (and most expensive) heuristic in the package and exists as
// an upper-reference for the ablation studies: how much interactivity do
// the paper's fast heuristics leave on the table?
type Anneal struct {
	// Initial produces the starting assignment (nil = Greedy, the
	// strongest cheap start).
	Initial Algorithm
	// Seed drives the random walk.
	Seed int64
	// Steps is the number of proposed moves (0 = 200·|C|).
	Steps int
	// StartTemp and EndTemp bound the geometric cooling schedule as
	// fractions of the initial D (defaults 0.05 and 0.0001).
	StartTemp, EndTemp float64
	// Span, if non-nil, receives one anneal.best event per new best D,
	// with the temperature at that step, and the accepted and steps
	// counts as attrs at the end. Other moves are not traced: with
	// 200·|C| steps they would swamp the span.
	Span *obs.Span
}

// Name implements Algorithm.
func (Anneal) Name() string { return "Anneal" }

// Assign implements Algorithm.
func (an Anneal) Assign(in *core.Instance, caps core.Capacities) (core.Assignment, error) {
	if err := validateInputs(in, caps); err != nil {
		return nil, err
	}
	initial := an.Initial
	if initial == nil {
		initial = Greedy{}
	}
	start, err := initial.Assign(in, caps)
	if err != nil {
		return nil, fmt.Errorf("assign: initial assignment: %w", err)
	}
	ev, err := in.NewEvaluator(start)
	if err != nil {
		return nil, err
	}
	nc, ns := in.NumClients(), in.NumServers()
	if ns < 2 {
		return start, nil
	}
	steps := an.Steps
	if steps <= 0 {
		steps = 200 * nc
	}
	startTemp := an.StartTemp
	if startTemp <= 0 {
		startTemp = 0.05
	}
	endTemp := an.EndTemp
	if endTemp <= 0 {
		endTemp = 0.0001
	}

	rng := rand.New(rand.NewSource(an.Seed))
	d := ev.D()
	t0 := startTemp * d
	t1 := endTemp * d
	if t1 >= t0 {
		t1 = t0 / 100
	}
	cool := math.Pow(t1/t0, 1/float64(steps))

	best := ev.Assignment()
	bestD := d
	temp := t0
	accepted := 0
	for step := 0; step < steps; step++ {
		c := rng.Intn(nc)
		cur := ev.ServerOf(c)
		s := rng.Intn(ns - 1)
		if s >= cur {
			s++
		}
		if caps != nil && ev.Load(s) >= caps[s] {
			temp *= cool
			continue
		}
		nd := ev.PeekMove(c, s)
		if nd <= d || rng.Float64() < math.Exp((d-nd)/temp) {
			ev.Move(c, s)
			d = nd
			accepted++
			if d < bestD-eps {
				bestD = d
				best = ev.Assignment()
				if an.Span != nil {
					an.Span.Event("anneal.best", obs.Int("step", step+1), obs.F64("d", d),
						obs.F64("temp", temp), obs.Int("client", c), obs.Int("server", s))
				}
			}
		}
		temp *= cool
	}
	an.Span.SetAttr(obs.Int("accepted", accepted), obs.Int("steps", steps))
	return best, nil
}

// MinAverage is a best-improvement local search minimizing the *average*
// interaction-path length instead of the maximum — the objective variant
// relevant when strict fairness is relaxed (or for discrete DIAs). It
// starts from Nearest-Server, which is already a strong average-latency
// heuristic, and applies single-client moves while the average strictly
// decreases. The average is maintained incrementally in O(|S|) per
// candidate via the load decomposition (see core.AvgInteractionPath).
type MinAverage struct {
	// Initial produces the starting assignment (nil = Nearest-Server).
	Initial Algorithm
	// MaxRounds bounds improvement rounds (0 = |C|).
	MaxRounds int
}

// Name implements Algorithm.
func (MinAverage) Name() string { return "Min-Average" }

// Assign implements Algorithm.
func (ma MinAverage) Assign(in *core.Instance, caps core.Capacities) (core.Assignment, error) {
	if err := validateInputs(in, caps); err != nil {
		return nil, err
	}
	initial := ma.Initial
	if initial == nil {
		initial = NearestServer{}
	}
	a, err := initial.Assign(in, caps)
	if err != nil {
		return nil, fmt.Errorf("assign: initial assignment: %w", err)
	}
	nc, ns := in.NumClients(), in.NumServers()
	loads := in.Loads(a)

	// Incremental state for the decomposed sum:
	//   total = 2n·S_c + Σ_{s,t} n_s n_t d(s,t),  n fixed = |C|.
	sumCS := in.SumClientServerDist(a)
	// serverTerm(s) = Σ_t n_t·d(s,t), maintained per server.
	serverTerm := make([]float64, ns)
	for s := 0; s < ns; s++ {
		row := in.ServerServerRow(s)
		for t := 0; t < ns; t++ {
			serverTerm[s] += float64(loads[t]) * row[t]
		}
	}
	pairSum := 0.0
	for s := 0; s < ns; s++ {
		pairSum += float64(loads[s]) * serverTerm[s]
	}
	n := float64(nc)

	// deltaTotal returns the change of the total pair-sum if client c
	// moves from server u to server v (u ≠ v). Writing the new loads as
	// n + e with e_u = −1, e_v = +1, the bilinear term changes by
	// 2·Σ_s e_s·T_s + Σ_{s,t} e_s·e_t·d(s,t) = 2(T_v − T_u − d(u,v)),
	// with T_s = Σ_t n_t·d(s,t) over the old loads. Cross-checked against
	// the naive O(|C|²) oracle in tests.
	deltaTotal := func(c, u, v int) float64 {
		dCS := in.ClientServerDist(c, v) - in.ClientServerDist(c, u)
		dPair := 2 * (serverTerm[v] - serverTerm[u] - in.ServerServerDist(u, v))
		return 2*n*dCS + dPair
	}

	applyMove := func(c, u, v int) {
		loads[u]--
		loads[v]++
		sumCS += in.ClientServerDist(c, v) - in.ClientServerDist(c, u)
		for s := 0; s < ns; s++ {
			serverTerm[s] += in.ServerServerDist(s, v) - in.ServerServerDist(s, u)
		}
		pairSum = 0
		for s := 0; s < ns; s++ {
			pairSum += float64(loads[s]) * serverTerm[s]
		}
		a[c] = v
	}

	rounds := ma.MaxRounds
	if rounds <= 0 {
		rounds = nc
	}
	for round := 0; round < rounds; round++ {
		bestC, bestS, bestDelta := -1, -1, -eps
		for c := 0; c < nc; c++ {
			u := a[c]
			for v := 0; v < ns; v++ {
				if v == u {
					continue
				}
				if caps != nil && loads[v] >= caps[v] {
					continue
				}
				if delta := deltaTotal(c, u, v); delta < bestDelta {
					bestC, bestS, bestDelta = c, v, delta
				}
			}
		}
		if bestC == -1 {
			break
		}
		applyMove(bestC, a[bestC], bestS)
	}
	return a, nil
}
