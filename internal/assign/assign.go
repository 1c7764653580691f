// Package assign implements the client assignment algorithms of the paper
// (Section IV): Nearest-Server Assignment, Longest-First-Batch Assignment,
// Greedy Assignment, and Distributed-Greedy Assignment, each in both the
// uncapacitated and capacitated (Section IV-E) forms, plus an exact
// branch-and-bound solver used as an optimality oracle on small instances.
//
// All algorithms consume only the client-to-server and server-to-server
// latencies of a core.Instance — exactly the measurements the paper says
// can be collected with ping or King — and produce a core.Assignment
// minimizing (heuristically) the maximum interaction-path length D.
package assign

import (
	"cmp"
	"errors"
	"fmt"
	"sort"

	"diacap/internal/core"
	"diacap/internal/obs"
	"diacap/internal/perfkit"
)

// eps absorbs floating-point noise in latency comparisons.
const eps = 1e-9

// ErrInfeasible is returned when a capacitated instance cannot be
// completed (e.g. total capacity below the client count).
var ErrInfeasible = errors.New("assign: infeasible instance")

// Algorithm is a client assignment algorithm. Assign must return a
// complete assignment respecting caps (nil caps means uncapacitated), or
// an error.
type Algorithm interface {
	// Name returns the paper's name for the algorithm.
	Name() string
	// Assign computes a complete assignment for the instance.
	Assign(in *core.Instance, caps core.Capacities) (core.Assignment, error)
}

// All returns the paper's four heuristics in presentation order:
// Nearest-Server, Longest-First-Batch, Greedy, Distributed-Greedy.
func All() []Algorithm {
	return []Algorithm{
		NearestServer{},
		LongestFirstBatch{},
		Greedy{},
		NewDistributedGreedy(),
	}
}

// ByName returns the algorithm with the given Name.
func ByName(name string) (Algorithm, error) {
	for _, a := range All() {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("assign: unknown algorithm %q", name)
}

// Extended returns every algorithm in the package — the paper's four
// plus the baselines and metaheuristics — with the randomized ones
// (Random, Anneal) driven by seed, so two calls with the same seed yield
// identical algorithm behavior.
func Extended(seed int64) []Algorithm {
	return append(All(),
		SingleServer{},
		RandomAssign{Seed: seed},
		TwoPhase{},
		LocalSearch{},
		MinAverage{},
		Anneal{Seed: seed},
	)
}

// ByNameSeeded resolves name over the Extended set, seeding randomized
// algorithms with seed. Names from All() resolve to the same algorithms
// ByName returns.
func ByNameSeeded(name string, seed int64) (Algorithm, error) {
	for _, a := range Extended(seed) {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("assign: unknown algorithm %q", name)
}

// WithSpan returns a copy of alg that records its steps as events on
// sp. Greedy, Distributed-Greedy, and Anneal support it; other
// algorithms are returned unchanged with traced == false. The span is
// set on the returned copy only, so shared algorithm values (e.g. the
// registry returned by All) are never mutated.
func WithSpan(alg Algorithm, sp *obs.Span) (traced Algorithm, ok bool) {
	switch a := alg.(type) {
	case Greedy:
		a.Span = sp
		return a, true
	case DistributedGreedy:
		a.Span = sp
		return a, true
	case Anneal:
		a.Span = sp
		return a, true
	}
	return alg, false
}

// validateInputs runs the shared pre-flight checks.
func validateInputs(in *core.Instance, caps core.Capacities) error {
	if in == nil {
		return errors.New("assign: nil instance")
	}
	if err := in.ValidateCapacities(caps); err != nil {
		return fmt.Errorf("%w: %v", ErrInfeasible, err)
	}
	return nil
}

// NearestServer is the paper's Nearest-Server Assignment: every client
// connects to its lowest-latency server. Under shortest-path routing it is
// a 3-approximation (Theorem 2), and the ratio is tight (Fig. 4); on real
// latency data, which violates the triangle inequality, it can be far from
// optimal. In the capacitated form each client tries its servers in
// increasing latency order until one has room; clients are processed in
// index order.
type NearestServer struct{}

// Name implements Algorithm.
func (NearestServer) Name() string { return "Nearest-Server" }

// Assign implements Algorithm.
func (NearestServer) Assign(in *core.Instance, caps core.Capacities) (core.Assignment, error) {
	if err := validateInputs(in, caps); err != nil {
		return nil, err
	}
	nc, ns := in.NumClients(), in.NumServers()
	a := core.NewAssignment(nc)
	if caps == nil {
		// One argmin kernel pass over the flat client-server table;
		// same strict-< lower-index tie rule as the scalar scan.
		perfkit.NearestInto(in.FlatClientServer(), a)
		return a, nil
	}

	loads := make([]int, ns)
	// Per-client server ranking by distance; computed lazily would save
	// little since most clients fall through only rarely.
	order := make([]int, ns)
	for i := 0; i < nc; i++ {
		row := in.ClientServerRow(i)
		for k := range order {
			order[k] = k
		}
		sort.Slice(order, func(x, y int) bool {
			if c := cmp.Compare(row[order[x]], row[order[y]]); c != 0 {
				return c < 0
			}
			return order[x] < order[y]
		})
		assigned := false
		for _, k := range order {
			if loads[k] < caps[k] {
				a[i] = k
				loads[k]++
				assigned = true
				break
			}
		}
		if !assigned {
			return nil, fmt.Errorf("%w: no server has capacity for client %d", ErrInfeasible, i)
		}
	}
	return a, nil
}

// nearestServerOf returns the index of the server closest to client i,
// breaking ties toward the lower server index.
func nearestServerOf(in *core.Instance, i int) int {
	row := in.ClientServerRow(i)
	best := 0
	for k := 1; k < len(row); k++ {
		if row[k] < row[best] {
			best = k
		}
	}
	return best
}
