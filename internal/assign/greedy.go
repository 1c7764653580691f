package assign

import (
	"cmp"
	"fmt"
	"math"
	"sort"

	"diacap/internal/core"
	"diacap/internal/obs"
	"diacap/internal/perfkit"
)

// Greedy is the paper's Greedy Assignment (Section IV-C, pseudocode in
// Fig. 6). Starting from an empty assignment, each iteration considers
// every (unassigned client c, server s) pair; choosing the pair would
// assign to s the batch of all unassigned clients not farther from s than
// c. With Δn the batch size and Δl the resulting increase of the maximum
// interaction-path length, the pair minimizing the amortized cost Δl/Δn is
// selected. Per-server client lists sorted by distance (the paper's Ls)
// and ranks among unassigned clients (the paper's index[s,c]) make Δn an
// O(1) lookup; the term max_b {d(s, sA(b)) + d(sA(b), b)} is shared across
// all unassigned clients of a server (the paper's m).
//
// In the capacitated form (Section IV-E) only unsaturated servers are
// considered and Δn reflects the remaining capacity: candidate batches are
// the prefixes of Ls that fit, so a selected batch fills the server at
// most exactly to capacity.
type Greedy struct {
	// Span, if non-nil, receives one greedy.batch event per batch pick
	// with the chosen pair's Δl and Δn. A nil span costs one comparison
	// per batch, outside the pair scan.
	Span *obs.Span
}

// Name implements Algorithm.
func (Greedy) Name() string { return "Greedy" }

// Assign implements Algorithm.
func (g Greedy) Assign(in *core.Instance, caps core.Capacities) (core.Assignment, error) {
	return greedyAssign(in, caps, true, g.Span)
}

// GreedyPlainDelta is the ablation of Greedy's cost rule: it selects the
// (client, server) pair minimizing the raw increase Δl of the maximum
// interaction-path length instead of the amortized Δl/Δn. DESIGN.md's
// ablation study uses it to show why the amortized metric matters: plain
// Δl has no incentive to absorb many clients per step, degenerating
// toward one-client-at-a-time assignment with far more iterations and
// (often) worse final interactivity.
type GreedyPlainDelta struct{}

// Name implements Algorithm.
func (GreedyPlainDelta) Name() string { return "Greedy-PlainDelta" }

// Assign implements Algorithm.
func (GreedyPlainDelta) Assign(in *core.Instance, caps core.Capacities) (core.Assignment, error) {
	return greedyAssign(in, caps, false, nil)
}

// greedyAssign is the shared engine; amortized selects the paper's Δl/Δn
// cost (true) or the ablation's plain Δl (false).
func greedyAssign(in *core.Instance, caps core.Capacities, amortized bool, sp *obs.Span) (core.Assignment, error) {
	if err := validateInputs(in, caps); err != nil {
		return nil, err
	}
	nc, ns := in.NumClients(), in.NumServers()
	a := core.NewAssignment(nc)

	// Preprocessing: Ls for each server — all clients sorted by distance
	// ascending (ties by client index for determinism).
	ls := make([][]int, ns)
	for k := 0; k < ns; k++ {
		list := make([]int, nc)
		for i := range list {
			list[i] = i
		}
		row := make([]float64, nc)
		for i := 0; i < nc; i++ {
			row[i] = in.ClientServerDist(i, k)
		}
		sort.Slice(list, func(x, y int) bool {
			if c := cmp.Compare(row[list[x]], row[list[y]]); c != 0 {
				return c < 0
			}
			return list[x] < list[y]
		})
		ls[k] = list
	}
	// index[k][c] = 1-based rank of client c among unassigned clients in
	// Ls[k]; the paper's index[s, c] (= Δn for the pair (c, s)).
	index := make([][]int, ns)
	for k := 0; k < ns; k++ {
		index[k] = make([]int, nc)
		for pos, c := range ls[k] {
			index[k][c] = pos + 1
		}
	}

	loads := make([]int, ns)
	ecc := make([]float64, ns) // max distance from server to its clients
	for k := range ecc {
		ecc[k] = -1
	}
	maxLen := 0.0
	remaining := nc
	step := 0

	for remaining > 0 {
		step++
		// Stage 1: find the (client, server) pair with minimum Δl/Δn.
		minCost := math.Inf(1)
		bestC, bestS := -1, -1
		bestLen := 0.0
		for k := 0; k < ns; k++ {
			if caps != nil && loads[k] >= caps[k] {
				continue
			}
			room := nc
			if caps != nil {
				room = caps[k] - loads[k]
			}
			// m ← max_b∈C' {d(s, sA(b)) + d(sA(b), b)}, via per-server
			// eccentricities; -Inf when no client is assigned yet.
			m := perfkit.MaxPlusSkip(in.ServerServerRow(k), ecc)
			for _, c := range ls[k] {
				if a[c] != core.Unassigned {
					continue
				}
				dn := index[k][c]
				if dn > room {
					// The batch ending at c cannot fit; shorter prefixes
					// of Ls[k] are covered by nearer clients.
					break
				}
				d := in.ClientServerDist(c, k)
				l := 2 * d
				if m > math.Inf(-1) {
					if v := d + m; v > l {
						l = v
					}
				}
				if maxLen > l {
					l = maxLen
				}
				cost := l - maxLen
				if amortized {
					cost /= float64(dn)
				}
				if cost < minCost {
					minCost = cost
					bestC, bestS = c, k
					bestLen = l
				}
			}
		}
		if bestC == -1 {
			return nil, fmt.Errorf("%w: no (client, server) candidate with %d clients left", ErrInfeasible, remaining)
		}

		// Stage 2: assign the batch — the first Δn unassigned clients of
		// Ls[bestS] (all clients not farther from bestS than bestC).
		if sp != nil {
			sp.Event("greedy.batch", obs.Int("step", step), obs.F64("d", bestLen),
				obs.F64("deltaL", bestLen-maxLen), obs.Int("deltaN", index[bestS][bestC]),
				obs.Int("client", bestC), obs.Int("server", bestS))
		}
		maxLen = bestLen
		want := index[bestS][bestC]
		taken := 0
		for _, c := range ls[bestS] {
			if taken == want {
				break
			}
			if a[c] != core.Unassigned {
				continue
			}
			a[c] = bestS
			loads[bestS]++
			remaining--
			taken++
			if d := in.ClientServerDist(c, bestS); d > ecc[bestS] {
				ecc[bestS] = d
			}
		}

		// Stage 3: refresh ranks of unassigned clients in every Ls.
		for k := 0; k < ns; k++ {
			nuc := 0
			for _, c := range ls[k] {
				if a[c] == core.Unassigned {
					nuc++
					index[k][c] = nuc
				}
			}
		}
	}
	return a, nil
}
