package core

import (
	"fmt"
	"math"
)

// Evaluator maintains the maximum interaction-path length D of an
// assignment under single-client moves. D is the maximum over used
// server pairs of ecc[s] + d(s,t) + ecc[t]; the evaluator keeps each
// server's eccentricity in a distance heap and each server's best pair
// in a cache under a lazy global max-heap, so a move costs O(|S| + log)
// amortized against O(|C| + U²) for a from-scratch MaxInteractionPath,
// and PeekMove answers a what-if without changing anything. The local
// searches (Local-Search, Anneal, the online repair strategies) peek
// thousands of moves; the shard plane applies every churn event.
//
// Invariants, maintained after every move:
//
//   - trackers[s] holds the multiset of distances from server s to its
//     assigned clients; its max equals ecc[s] bit-for-bit (-1 when
//     empty).
//   - used lists exactly the servers with at least one client
//     (ecc[s] >= 0); usedPos is its inverse (-1 when unused).
//   - For every used s, contrib[s] = max over used t of pairPath(s, t)
//     (t = s included: the degenerate one-server path), and argmax[s]
//     is a witness partner attaining it.
//   - top is a lazy max-heap over (contrib[s], s, ver[s]); entries
//     whose version does not match ver[s] are stale and skipped, so
//     the live top of the heap is D.
//
// Repair cost per eccentricity change is O(U) touches plus O(U) per
// witness-invalidated rescan; rescans are only needed when an
// eccentricity decreases (an increase of ecc[s] can only improve pairs
// involving s, because float64 addition is monotone in each argument).
type Evaluator struct {
	in *Instance
	a  Assignment

	// loads[s] = number of clients on s.
	loads []int
	// ecc[s] = max distance from s to its clients (-1 when empty).
	ecc []float64
	// d = current maximum interaction-path length.
	d float64

	trackers []maxTracker
	contrib  []float64
	argmax   []int
	used     []int
	usedPos  []int
	ver      []uint64
	top      []topEntry

	// stats counts the work performed, split by kind (see
	// EvaluatorStats).
	stats EvaluatorStats
	// deltaHook, when non-nil, observes every applied delta operation
	// (see SetDeltaHook). Kept a plain func field so core stays free of
	// observability dependencies; the cost when unset is one nil check
	// per Apply call.
	deltaHook func(DeltaEvent)
}

type topEntry struct {
	d   float64
	s   int
	ver uint64
}

// NewEvaluator builds an evaluator over a copy of the assignment (the
// caller's slice is not retained). Partial assignments are allowed;
// unassigned clients contribute nothing until moved onto a server.
func (in *Instance) NewEvaluator(a Assignment) (*Evaluator, error) {
	if len(a) != in.NumClients() {
		return nil, fmt.Errorf("%w: length %d, want %d", ErrInvalidAssignment, len(a), in.NumClients())
	}
	for i, s := range a {
		if s != Unassigned && (s < 0 || s >= in.NumServers()) {
			return nil, fmt.Errorf("%w: client %d on server %d", ErrInvalidAssignment, i, s)
		}
	}
	ns := in.NumServers()
	ev := &Evaluator{
		in:       in,
		a:        a.Clone(),
		loads:    in.Loads(a),
		ecc:      in.Eccentricities(a),
		trackers: make([]maxTracker, ns),
		contrib:  make([]float64, ns),
		argmax:   make([]int, ns),
		usedPos:  make([]int, ns),
		ver:      make([]uint64, ns),
		used:     make([]int, 0, ns),
		top:      make([]topEntry, 0, ns),
	}
	// Every server's distance heap starts in one array, sized by load.
	assigned := 0
	for _, n := range ev.loads {
		assigned += n
	}
	dist := make([]float64, assigned)
	for k, n := range ev.loads {
		ev.trackers[k].live, dist = dist[:0:n], dist[n:]
	}
	for c, s := range a {
		if s != Unassigned {
			ev.trackers[s].push(in.cs[c][s])
		}
	}
	for k := 0; k < ns; k++ {
		ev.usedPos[k], ev.argmax[k] = -1, -1
		if ev.ecc[k] >= 0 {
			ev.addUsed(k)
		}
	}
	for _, s := range ev.used {
		ev.rescan(s)
	}
	ev.d = ev.currentD()
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
func (ev *Evaluator) D() float64 { return ev.d }

// Move reassigns client c to server s (s may be Unassigned to remove the
// client) and returns the new D. Moving a client to its current server
// returns the cached D and does no work.
func (ev *Evaluator) Move(c, s int) float64 {
	if c < 0 || c >= len(ev.a) {
		panic(fmt.Sprintf("core: Move client %d out of range", c))
	}
	if s != Unassigned && (s < 0 || s >= ev.in.NumServers()) {
		panic(fmt.Sprintf("core: Move to server %d out of range", s))
	}
	return ev.move(c, s)
}

// move repairs the affected servers' eccentricities through their
// distance heaps and the global max through the cached pair values,
// with no O(|C|) scan and no O(U²) pair walk.
//
//dialint:hotpath
func (ev *Evaluator) move(c, s int) float64 {
	old := ev.a[c]
	if old == s {
		return ev.d
	}
	if old != Unassigned {
		ev.loads[old]--
		ev.trackers[old].remove(ev.in.cs[c][old])
		ev.stats.HeapOps++
		if ne := ev.trackers[old].max(); math.Float64bits(ne) != math.Float64bits(ev.ecc[old]) {
			ev.ecc[old] = ne
			ev.eccChanged(old, true)
		}
	}
	ev.a[c] = s
	if s != Unassigned {
		ev.loads[s]++
		wasUsed := ev.ecc[s] >= 0
		ev.trackers[s].push(ev.in.cs[c][s])
		ev.stats.HeapOps++
		if v := ev.in.cs[c][s]; v > ev.ecc[s] {
			ev.ecc[s] = v
			ev.eccChanged(s, wasUsed)
		}
	}
	ev.d = ev.currentD()
	return ev.d
}

// PeekMove returns the D that Move(c, s) would produce without changing
// any state: it pushes no heap entry and moves no work counter.
//
// Only two eccentricities can change: that of c's current server cur,
// which drops only when c is its farthest client, and that of s, which
// can only rise. The new D is the larger of the best pair avoiding cur
// (ev.d when cur keeps its eccentricity, since no other pair can fall)
// and every pair through cur or s under the new eccentricities. Cached
// pair values through s are computed with the old, lower ecc[s], so
// they stay valid lower bounds. Every pair value is summed as pairPath
// sums it, so the result is bit-identical to the D after the move.
//
//dialint:hotpath
func (ev *Evaluator) PeekMove(c, s int) float64 {
	cur := ev.a[c]
	if cur == s {
		return ev.d
	}
	best := ev.d
	eCur, dropped := -1.0, false
	if cur != Unassigned {
		eCur = ev.ecc[cur]
		if math.Float64bits(ev.in.cs[c][cur]) == math.Float64bits(eCur) {
			eCur = ev.eccWithout(c, cur)
			if dropped = math.Float64bits(eCur) != math.Float64bits(ev.ecc[cur]); dropped {
				best = ev.bestAvoiding(cur)
			}
		}
	}
	if dropped && eCur >= 0 {
		// Pairs through cur under its lower eccentricity; a pair with s
		// uses s's old eccentricity here and is redone below if it rose.
		for _, t := range ev.used {
			et := ev.ecc[t]
			if t == cur {
				et = eCur
			}
			if v := ev.pairOf(cur, eCur, t, et); v > best {
				best = v
			}
		}
	}
	if s == Unassigned {
		return best
	}
	eS := max(ev.ecc[s], ev.in.cs[c][s])
	if math.Float64bits(eS) == math.Float64bits(ev.ecc[s]) {
		return best
	}
	if v := ev.pairOf(s, eS, s, eS); v > best {
		best = v
	}
	for _, t := range ev.used {
		et := ev.ecc[t]
		switch t {
		case s:
			continue
		case cur:
			if et = eCur; et < 0 {
				continue
			}
		}
		if v := ev.pairOf(s, eS, t, et); v > best {
			best = v
		}
	}
	return best
}

// eccWithout returns the eccentricity server k would have without
// client c: a scan over the assignment, paid only when c is k's
// farthest client.
func (ev *Evaluator) eccWithout(c, k int) float64 {
	e := -1.0
	for j, sj := range ev.a {
		if sj == k && j != c {
			if v := ev.in.cs[j][k]; v > e {
				e = v
			}
		}
	}
	return e
}

// bestAvoiding returns the largest pair value over used servers other
// than k, under the current eccentricities (0 when there is none); k
// must be used. A cached contrib[t] whose witness is not k is attained
// by a pair avoiding k, so it is exact; a server whose witness is k is
// rescanned without k.
func (ev *Evaluator) bestAvoiding(k int) float64 {
	// Every move ends in currentD, which leaves a live entry on top.
	if e := ev.top[0]; e.s != k && ev.argmax[e.s] != k {
		return ev.d // the top's own pair avoids k
	}
	var best float64
	for _, t := range ev.used {
		if t == k {
			continue
		}
		v := ev.contrib[t]
		if ev.argmax[t] == k {
			v = math.Inf(-1)
			for _, u := range ev.used {
				if u != k {
					v = max(v, ev.pairPath(t, u))
				}
			}
		}
		best = max(best, v)
	}
	return best
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
