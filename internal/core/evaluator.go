package core

import (
	"fmt"
	"math"

	"diacap/internal/perfkit"
)

// Evaluator maintains the maximum interaction-path length D of an
// assignment under incremental client moves. A move costs O(|S| + R)
// where R is the size of the moved client's old server (for eccentricity
// repair), against O(|C| + U²) for a from-scratch MaxInteractionPath —
// the difference matters for local-search algorithms that try thousands
// of moves (TwoPhase, the ablation studies, and external users doing
// online reassignment as clients join and leave).
//
// The evaluator tracks, per server, a multiset of client distances (via
// counts) so eccentricities can be repaired exactly when the farthest
// client leaves.
type Evaluator struct {
	in *Instance
	a  Assignment

	// loads[s] = number of clients on s.
	loads []int
	// ecc[s] = max distance from s to its clients (-1 when empty).
	ecc []float64
	// d = current maximum interaction-path length.
	d float64
	// dirty marks that d must be recomputed (after a move that could
	// lower D, a full pair scan over used servers is needed anyway).
	dirty bool
	// scratch backs the recompute kernel's compaction arrays. An
	// Evaluator is single-goroutine (its whole point is mutable
	// incremental state), so one private arena serves every recompute
	// without allocation.
	scratch *perfkit.Scratch
	// inc, when non-nil, maintains D incrementally (heap-backed
	// eccentricities plus cached pair maxima) instead of through
	// recompute. See EnableIncremental.
	inc *incState
	// stats counts the work performed, split by kind (see
	// EvaluatorStats).
	stats EvaluatorStats
	// deltaHook, when non-nil, observes every applied delta operation
	// (see SetDeltaHook). Kept a plain func field so core stays free of
	// observability dependencies; the cost when unset is one nil check
	// per Apply call.
	deltaHook func(DeltaEvent)
}

// NewEvaluator builds an evaluator over a copy of the assignment (the
// caller's slice is not retained). Partial assignments are allowed;
// unassigned clients contribute nothing until Assign-ed.
func (in *Instance) NewEvaluator(a Assignment) (*Evaluator, error) {
	if len(a) != in.NumClients() {
		return nil, fmt.Errorf("%w: length %d, want %d", ErrInvalidAssignment, len(a), in.NumClients())
	}
	for i, s := range a {
		if s != Unassigned && (s < 0 || s >= in.NumServers()) {
			return nil, fmt.Errorf("%w: client %d on server %d", ErrInvalidAssignment, i, s)
		}
	}
	ev := &Evaluator{
		in:      in,
		a:       a.Clone(),
		loads:   in.Loads(a),
		ecc:     in.Eccentricities(a),
		dirty:   true,
		scratch: new(perfkit.Scratch),
	}
	return ev, nil
}

// Instance returns the instance this evaluator evaluates. Online
// strategies read geometry through it instead of caching their own
// instance pointer, so a caller may re-materialize the instance (e.g.
// after network coordinates drift) and hand the strategies a fresh
// evaluator without rebuilding the strategies themselves.
func (ev *Evaluator) Instance() *Instance { return ev.in }

// Assignment returns a copy of the current assignment.
func (ev *Evaluator) Assignment() Assignment { return ev.a.Clone() }

// CopyAssignment copies the servers of clients from, from+1, ... into
// dst and returns how many it copied: a slice of the assignment without
// cloning all of it.
func (ev *Evaluator) CopyAssignment(dst []int, from int) int { return copy(dst, ev.a[from:]) }

// ServerOf returns the current server of a client (or Unassigned).
func (ev *Evaluator) ServerOf(c int) int { return ev.a[c] }

// Load returns the number of clients on server s.
func (ev *Evaluator) Load(s int) int { return ev.loads[s] }

// Eccentricity returns the current eccentricity of server s (-1 if no
// clients).
func (ev *Evaluator) Eccentricity(s int) float64 { return ev.ecc[s] }

// D returns the current maximum interaction-path length.
func (ev *Evaluator) D() float64 {
	if ev.dirty {
		ev.recompute()
	}
	return ev.d
}

// recompute rebuilds D from the per-server eccentricities via the
// perfkit pair kernel (bit-identical to the sentinel-skipping double
// loop it replaced — see perfkit.MaxPathEccRef).
func (ev *Evaluator) recompute() {
	ev.stats.Recomputes++
	ev.scratch.Reset()
	ev.d = perfkit.MaxPathEcc(ev.in.ssF, ev.ecc, ev.scratch)
	ev.dirty = false
}

// Move reassigns client c to server s (s may be Unassigned to remove the
// client) and returns the new D.
func (ev *Evaluator) Move(c, s int) float64 {
	if c < 0 || c >= len(ev.a) {
		panic(fmt.Sprintf("core: Move client %d out of range", c))
	}
	if s != Unassigned && (s < 0 || s >= ev.in.NumServers()) {
		panic(fmt.Sprintf("core: Move to server %d out of range", s))
	}
	old := ev.a[c]
	if old == s {
		// No-op move: the assignment is unchanged, so D is too. Return
		// the cached value without marking state dirty — a recompute here
		// would be O(U²) for nothing (see TestEvaluatorNoOpMoveDoesNoWork).
		return ev.D()
	}
	if ev.inc != nil {
		return ev.moveIncremental(c, s)
	}
	if old != Unassigned {
		ev.loads[old]--
		// Repair the old server's eccentricity if c could have defined it.
		if ev.in.cs[c][old] >= ev.ecc[old]-1e-15 {
			ev.stats.EccScans++
			ev.ecc[old] = -1
			for j, sj := range ev.a {
				if j != c && sj == old {
					if v := ev.in.cs[j][old]; v > ev.ecc[old] {
						ev.ecc[old] = v
					}
				}
			}
		}
	}
	ev.a[c] = s
	if s != Unassigned {
		ev.loads[s]++
		if v := ev.in.cs[c][s]; v > ev.ecc[s] {
			ev.ecc[s] = v
		}
	}
	ev.dirty = true
	return ev.D()
}

// PeekMove returns the D that Move(c, s) would produce, without changing
// state. It is O(U) when the move cannot shrink any eccentricity, and
// falls back to a scan otherwise. Peeking a client's current server is
// answered from the cached D without any repair work.
func (ev *Evaluator) PeekMove(c, s int) float64 {
	cur := ev.a[c]
	if cur == s {
		return ev.D()
	}
	d := ev.Move(c, s)
	ev.Move(c, cur)
	return d
}

// MaxPathInvolving returns the length of the longest interaction path
// involving client c under the current assignment, or -1 if c is
// unassigned. Used to find clients on critical paths.
func (ev *Evaluator) MaxPathInvolving(c int) float64 {
	s := ev.a[c]
	if s == Unassigned {
		return -1
	}
	in := ev.in
	best := math.Inf(-1)
	for t := 0; t < in.NumServers(); t++ {
		if ev.ecc[t] < 0 {
			continue
		}
		if v := in.cs[c][s] + in.ss[s][t] + ev.ecc[t]; v > best {
			best = v
		}
	}
	return best
}
