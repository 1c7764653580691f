package assign

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"diacap/internal/core"
	"diacap/internal/obs"
)

// Weights gives each client an integral demand against server
// capacities. The scale pipeline (internal/scale) solves reduced
// instances whose "clients" are cluster cells: a cell aggregating m real
// clients consumes m units of capacity, so its weight is m. A nil
// Weights means every client weighs 1, recovering the paper's
// capacitated semantics exactly.
//
// Weights only affect capacity accounting — the objective D is a
// maximum over interaction paths and is untouched by how much capacity
// a client consumes — so the uncapacitated forms of every algorithm are
// already weight-correct and the weighted entry points below differ
// from the paper's engines only in their feasibility checks.
type Weights []int

// of returns client i's weight (1 for nil Weights).
func (w Weights) of(i int) int {
	if w == nil {
		return 1
	}
	return w[i]
}

// validateWeights runs the weighted pre-flight checks: weights (when
// present) must align with the client count, be ≥ 1, and fit the total
// capacity.
func validateWeights(in *core.Instance, weights Weights, caps core.Capacities) error {
	if err := validateInputs(in, caps); err != nil {
		return err
	}
	if weights == nil {
		return nil
	}
	if len(weights) != in.NumClients() {
		return fmt.Errorf("%w: %d weights for %d clients", ErrInfeasible, len(weights), in.NumClients())
	}
	total := 0
	for i, v := range weights {
		if v < 1 {
			return fmt.Errorf("%w: client %d has weight %d, want >= 1", ErrInfeasible, i, v)
		}
		total += v
	}
	if caps != nil {
		capTotal := 0
		for _, c := range caps {
			capTotal += c
		}
		if capTotal < total {
			return fmt.Errorf("%w: total capacity %d < total weight %d", ErrInfeasible, capTotal, total)
		}
	}
	return nil
}

// CheckWeighted verifies that assignment a respects caps under weights:
// the weighted load of every server stays within its capacity.
func CheckWeighted(in *core.Instance, a core.Assignment, weights Weights, caps core.Capacities) error {
	if caps == nil {
		return nil
	}
	loads := make([]int, in.NumServers())
	for i, s := range a {
		if s != core.Unassigned {
			loads[s] += weights.of(i)
		}
	}
	for k, load := range loads {
		if load > caps[k] {
			return fmt.Errorf("%w: server %d carries weight %d, capacity %d", ErrInfeasible, k, load, caps[k])
		}
	}
	return nil
}

// WeightedAlgorithm is an assignment algorithm aware of client weights.
// Nearest-Server, Longest-First-Batch, and Greedy implement it; with
// nil weights each matches its unweighted capacitated form.
type WeightedAlgorithm interface {
	Algorithm
	AssignWeighted(in *core.Instance, weights Weights, caps core.Capacities) (core.Assignment, error)
}

// AssignWeighted implements WeightedAlgorithm: each client, in index
// order, takes the nearest server whose remaining capacity fits its
// weight.
func (ns NearestServer) AssignWeighted(in *core.Instance, weights Weights, caps core.Capacities) (core.Assignment, error) {
	if err := validateWeights(in, weights, caps); err != nil {
		return nil, err
	}
	if caps == nil || weights == nil {
		return ns.Assign(in, caps)
	}
	nc, nsrv := in.NumClients(), in.NumServers()
	a := core.NewAssignment(nc)
	loads := make([]int, nsrv)
	order := make([]int, nsrv)
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
			if loads[k]+weights.of(i) <= caps[k] {
				a[i] = k
				loads[k] += weights.of(i)
				assigned = true
				break
			}
		}
		if !assigned {
			return nil, fmt.Errorf("%w: no server has capacity for client %d (weight %d)", ErrInfeasible, i, weights.of(i))
		}
	}
	return a, nil
}

// AssignWeighted implements WeightedAlgorithm. The engine is the
// capacitated Longest-First-Batch of Section IV-E with weighted
// feasibility: a server is a candidate for a client only if its
// remaining capacity fits the client's weight, and batches fill
// nearest-first, skipping members too heavy for the remaining room.
func (l LongestFirstBatch) AssignWeighted(in *core.Instance, weights Weights, caps core.Capacities) (core.Assignment, error) {
	if err := validateWeights(in, weights, caps); err != nil {
		return nil, err
	}
	if caps == nil || weights == nil {
		return l.Assign(in, caps)
	}
	nc, ns := in.NumClients(), in.NumServers()
	a := core.NewAssignment(nc)
	loads := make([]int, ns)
	remaining := nc

	// Nearest feasible server per unassigned client. Unlike the unit
	// case, feasibility is per-client (a weight-2 client may fit where a
	// weight-5 one does not), so it is recomputed after every truncated
	// batch rather than only on saturation.
	nearest := make([]int, nc)
	nearestDist := make([]float64, nc)
	recompute := func() error {
		for i := 0; i < nc; i++ {
			if a[i] != core.Unassigned {
				continue
			}
			row := in.ClientServerRow(i)
			best := -1
			for k := 0; k < ns; k++ {
				if loads[k]+weights.of(i) > caps[k] {
					continue
				}
				if best == -1 || row[k] < row[best] {
					best = k
				}
			}
			if best == -1 {
				return fmt.Errorf("%w: no server fits client %d (weight %d) with %d clients left", ErrInfeasible, i, weights.of(i), remaining)
			}
			nearest[i] = best
			nearestDist[i] = row[best]
		}
		return nil
	}
	if err := recompute(); err != nil {
		return nil, err
	}

	for remaining > 0 {
		c := -1
		for i := 0; i < nc; i++ {
			if a[i] != core.Unassigned {
				continue
			}
			if c == -1 || nearestDist[i] > nearestDist[c] {
				c = i
			}
		}
		s := nearest[c]
		if loads[s]+weights.of(c) > caps[s] {
			// Stale pick: s absorbed weight (without saturating) since
			// nearest[c] was computed and c no longer fits. Refresh and
			// re-pick — the fresh pick is guaranteed to fit, so at most
			// one recompute separates assignments and the loop advances.
			if err := recompute(); err != nil {
				return nil, err
			}
			continue
		}
		limit := nearestDist[c]

		batch := make([]int, 0, remaining)
		for j := 0; j < nc; j++ {
			if a[j] == core.Unassigned && in.ClientServerDist(j, s) <= limit+eps {
				batch = append(batch, j)
			}
		}
		sort.Slice(batch, func(x, y int) bool {
			dx, dy := in.ClientServerDist(batch[x], s), in.ClientServerDist(batch[y], s)
			if c := cmp.Compare(dx, dy); c != 0 {
				return c < 0
			}
			return batch[x] < batch[y]
		})
		// Nearest-first fill, skipping members too heavy for the
		// remaining room (a skipped near client must not block farther,
		// lighter ones — in particular c itself, which fits whenever the
		// fill reaches it with the room untouched).
		skipped := false
		for _, j := range batch {
			if loads[s]+weights.of(j) > caps[s] {
				skipped = true
				continue
			}
			a[j] = s
			loads[s] += weights.of(j)
			remaining--
		}
		if remaining > 0 && (skipped || loads[s] >= caps[s]) {
			if err := recompute(); err != nil {
				return nil, err
			}
		}
	}
	return a, nil
}

// AssignWeighted implements WeightedAlgorithm: each client, in index
// order, takes a uniformly random server whose remaining capacity fits
// its weight. Weighted fits are client-specific, so unlike the unit
// engine a later, lighter client can succeed where an earlier one could
// not.
func (r RandomAssign) AssignWeighted(in *core.Instance, weights Weights, caps core.Capacities) (core.Assignment, error) {
	if err := validateWeights(in, weights, caps); err != nil {
		return nil, err
	}
	if caps == nil || weights == nil {
		return r.Assign(in, caps)
	}
	rng := rand.New(rand.NewSource(r.Seed))
	nc, ns := in.NumClients(), in.NumServers()
	a := make(core.Assignment, nc)
	loads := make([]int, ns)
	for i := 0; i < nc; i++ {
		open := 0
		for k := 0; k < ns; k++ {
			if loads[k]+weights.of(i) <= caps[k] {
				open++
			}
		}
		if open == 0 {
			return nil, fmt.Errorf("%w: no server fits client %d (weight %d)", ErrInfeasible, i, weights.of(i))
		}
		pick := rng.Intn(open)
		for k := 0; k < ns; k++ {
			if loads[k]+weights.of(i) <= caps[k] {
				if pick == 0 {
					a[i] = k
					loads[k] += weights.of(i)
					break
				}
				pick--
			}
		}
	}
	return a, nil
}

// AssignWeighted implements WeightedAlgorithm: the paper's Greedy
// (Fig. 6) with Δn generalized to the total weight of the batch — the
// number of real clients the batch represents on a reduced instance —
// both in the amortized cost Δl/Δn and in the capacity check (candidate
// batches are the prefixes of Ls whose weight fits the remaining
// capacity).
func (g Greedy) AssignWeighted(in *core.Instance, weights Weights, caps core.Capacities) (core.Assignment, error) {
	if err := validateWeights(in, weights, caps); err != nil {
		return nil, err
	}
	if weights == nil {
		return g.Assign(in, caps)
	}
	nc, ns := in.NumClients(), in.NumServers()
	a := core.NewAssignment(nc)

	// Ls per server: all clients sorted by distance ascending.
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

	loads := make([]int, ns)
	ecc := make([]float64, ns)
	for k := range ecc {
		ecc[k] = -1
	}
	maxLen := 0.0
	remaining := nc
	step := 0

	for remaining > 0 {
		step++
		minCost := math.Inf(1)
		bestC, bestS := -1, -1
		bestLen := 0.0
		for k := 0; k < ns; k++ {
			room := math.MaxInt
			if caps != nil {
				room = caps[k] - loads[k]
				if room <= 0 {
					continue
				}
			}
			m := math.Inf(-1)
			for t := 0; t < ns; t++ {
				if ecc[t] < 0 {
					continue
				}
				if v := in.ServerServerDist(k, t) + ecc[t]; v > m {
					m = v
				}
			}
			wsum := 0
			for _, c := range ls[k] {
				if a[c] != core.Unassigned {
					continue
				}
				wsum += weights.of(c)
				if wsum > room {
					// The batch ending at c cannot fit; prefix weights
					// are monotone so neither can any farther batch.
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
				cost := (l - maxLen) / float64(wsum)
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

		// Assign the batch: every unassigned client of Ls[bestS] up to
		// and including bestC.
		batchW := 0
		for _, c := range ls[bestS] {
			if a[c] == core.Unassigned {
				a[c] = bestS
				loads[bestS] += weights.of(c)
				batchW += weights.of(c)
				remaining--
				if d := in.ClientServerDist(c, bestS); d > ecc[bestS] {
					ecc[bestS] = d
				}
			}
			if c == bestC {
				break
			}
		}
		if g.Span != nil {
			g.Span.Event("greedy.batch", obs.Int("step", step), obs.F64("d", bestLen),
				obs.F64("deltaL", bestLen-maxLen), obs.Int("deltaN", batchW),
				obs.Int("client", bestC), obs.Int("server", bestS))
		}
		maxLen = bestLen
	}
	return a, nil
}
