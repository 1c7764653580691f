package assign

import (
	"fmt"
	"math"

	"diacap/internal/core"
	"diacap/internal/obs"
)

// DistributedGreedy is the paper's Distributed-Greedy Assignment
// (Section IV-D). Starting from an initial assignment (the paper uses
// Nearest-Server), it repeatedly examines clients involved in a longest
// interaction path. For such a client c currently on server s, every other
// server s' computes the maximum length of interaction paths involving c
// if c moved to it:
//
//	L(s') = max_{s''} { d(c, s') + d(s', s'') + l(s'') }
//
// where l(s”) is the longest distance from s” to its assigned clients
// excluding c. If min L(s') < D, c is reassigned to the minimizing server.
// Each modification can only keep or reduce D (paths not involving c are
// unchanged; new paths involving c are below the old D), and the algorithm
// terminates when examining every client on the longest path(s) yields no
// reduction.
//
// This type contains the protocol's decision logic run to convergence
// in-process; package dgreedy runs the same logic as an actual
// message-passing protocol over a simulated network and is cross-checked
// against this implementation.
//
// In the capacitated form, moves may only target unsaturated servers and
// the initial assignment is capacitated Nearest-Server.
type DistributedGreedy struct {
	// Initial produces the starting assignment. Nil means Nearest-Server,
	// as in the paper's experiments.
	Initial Algorithm
	// MaxModifications bounds the number of reassignments (0 = unlimited).
	// The paper's Fig. 9 plots interactivity after each modification; the
	// bound supports generating that curve.
	MaxModifications int
	// Span, if non-nil, receives one dg.init event with the initial D,
	// then one dg.move event per reassignment carrying the monotone
	// non-increasing D trajectory (the Section IV-D guarantee, asserted
	// in tests).
	Span *obs.Span
}

// NewDistributedGreedy returns the paper's configuration: Nearest-Server
// initial assignment, unlimited modifications.
func NewDistributedGreedy() DistributedGreedy { return DistributedGreedy{} }

// Name implements Algorithm.
func (DistributedGreedy) Name() string { return "Distributed-Greedy" }

// Assign implements Algorithm.
func (g DistributedGreedy) Assign(in *core.Instance, caps core.Capacities) (core.Assignment, error) {
	a, _, err := g.AssignWithTrace(in, caps)
	return a, err
}

// Trace records the optimization trajectory: D after the initial
// assignment and after every modification.
type Trace struct {
	// InitialD is the maximum interaction-path length of the initial
	// assignment.
	InitialD float64
	// DAfter[i] is D after the (i+1)-th assignment modification.
	DAfter []float64
	// Moves[i] identifies the client moved by the (i+1)-th modification.
	Moves []int
}

// Modifications returns the number of assignment modifications performed.
func (t *Trace) Modifications() int { return len(t.DAfter) }

// FinalD returns D after the last modification (or InitialD if none).
func (t *Trace) FinalD() float64 {
	if len(t.DAfter) == 0 {
		return t.InitialD
	}
	return t.DAfter[len(t.DAfter)-1]
}

// AssignWithTrace runs the algorithm and returns the final assignment
// together with the per-modification D trace used for Fig. 9.
func (g DistributedGreedy) AssignWithTrace(in *core.Instance, caps core.Capacities) (core.Assignment, *Trace, error) {
	if err := validateInputs(in, caps); err != nil {
		return nil, nil, err
	}
	initial := g.Initial
	if initial == nil {
		initial = NearestServer{}
	}
	a, err := initial.Assign(in, caps)
	if err != nil {
		return nil, nil, fmt.Errorf("assign: initial assignment: %w", err)
	}
	if err := in.Validate(a); err != nil {
		return nil, nil, fmt.Errorf("assign: initial assignment invalid: %w", err)
	}

	nc, ns := in.NumClients(), in.NumServers()
	loads := in.Loads(a)
	trace := &Trace{InitialD: in.MaxInteractionPath(a)}
	d := trace.InitialD
	if g.Span != nil {
		g.Span.Event("dg.init", obs.F64("d", d))
	}

	// reach(c) = d(c, sA(c)) + max_t (d(sA(c), t) + ecc(t)) is the length
	// of the longest interaction path involving c; c is on a longest path
	// iff reach(c) == D.
	for {
		improved := false
		ecc := in.Eccentricities(a)
		used := in.UsedServers(a)

		// Longest path length from each used server through the network:
		// far[s] = max_t (d(s,t) + ecc(t)).
		far := make([]float64, ns)
		for s := 0; s < ns; s++ {
			far[s] = math.Inf(-1)
			for _, t := range used {
				if v := in.ServerServerDist(s, t) + ecc[t]; v > far[s] {
					far[s] = v
				}
			}
		}

		// Snapshot of clients on longest paths.
		var critical []int
		for c := 0; c < nc; c++ {
			if in.ClientServerDist(c, a[c])+far[a[c]] >= d-eps {
				critical = append(critical, c)
			}
		}

		for _, c := range critical {
			// Re-check against the current assignment: an earlier move in
			// this sweep may have taken c off the longest paths.
			ecc = in.Eccentricities(a)
			used = in.UsedServers(a)
			cur := a[c]
			curFar := math.Inf(-1)
			for _, t := range used {
				if v := in.ServerServerDist(cur, t) + ecc[t]; v > curFar {
					curFar = v
				}
			}
			if in.ClientServerDist(c, cur)+curFar < d-eps {
				continue
			}

			// l(s'') excluding c: recompute the eccentricity of c's own
			// server without c; other servers are unaffected.
			lexcl := append([]float64(nil), ecc...)
			lexcl[cur] = -1
			for j := 0; j < nc; j++ {
				if j != c && a[j] == cur {
					if v := in.ClientServerDist(j, cur); v > lexcl[cur] {
						lexcl[cur] = v
					}
				}
			}

			// Evaluate L(s') for every candidate target server.
			bestS, bestL := -1, math.Inf(1)
			for sp := 0; sp < ns; sp++ {
				if sp == cur {
					continue
				}
				if caps != nil && loads[sp] >= caps[sp] {
					continue
				}
				dcs := in.ClientServerDist(c, sp)
				// Interaction path from c to itself; pairs between c and
				// the existing clients of sp fall out of the spp == sp
				// term of the loop below.
				l := 2 * dcs
				for spp := 0; spp < ns; spp++ {
					e := lexcl[spp]
					if e < 0 {
						continue
					}
					if v := dcs + in.ServerServerDist(sp, spp) + e; v > l {
						l = v
					}
				}
				if l < bestL {
					bestL, bestS = l, sp
				}
			}
			if bestS == -1 || bestL >= d-eps {
				continue // no move for this client improves its paths
			}

			// Reassign c to bestS.
			loads[cur]--
			loads[bestS]++
			a[c] = bestS
			newD := in.MaxInteractionPath(a)
			trace.DAfter = append(trace.DAfter, newD)
			trace.Moves = append(trace.Moves, c)
			if g.Span != nil {
				g.Span.Event("dg.move", obs.Int("step", trace.Modifications()), obs.F64("d", newD),
					obs.Int("client", c), obs.Int("server", bestS))
			}
			if newD < d-eps {
				d = newD
				improved = true
			} else {
				d = newD
			}
			if g.MaxModifications > 0 && trace.Modifications() >= g.MaxModifications {
				return a, trace, nil
			}
			if improved {
				break // restart with the new set of longest paths
			}
		}
		if !improved {
			return a, trace, nil
		}
	}
}
