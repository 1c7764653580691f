package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Typed errors for the delta operations (ApplyJoin / ApplyLeave /
// ApplyMove). Control planes route these to client-visible conflict
// responses, so they must be matchable with errors.Is.
var (
	// ErrAlreadyAssigned reports a join for a client that is already
	// assigned to a server.
	ErrAlreadyAssigned = errors.New("core: client already assigned")
	// ErrNotAssigned reports a leave or migrate for a client that is not
	// currently assigned.
	ErrNotAssigned = errors.New("core: client not assigned")
)

// EvaluatorStats counts the work the evaluator has performed, split by
// kind, so tests can assert what an operation sequence cost — and that
// no-op moves and PeekMove perform no repair work at all.
type EvaluatorStats struct {
	// HeapOps counts per-server distance-heap pushes and removals.
	HeapOps int
	// PairTouches counts O(1) candidate updates of another server's
	// cached best pair value.
	PairTouches int
	// PairRescans counts O(U) rebuilds of one server's best pair value
	// (needed when a cached witness goes stale).
	PairRescans int
}

// DeltaEvent describes one applied delta operation: what moved, the
// resulting D, and the incremental work it cost (stats deltas for this
// event alone). Consumers attribute per-event evaluator work to traces
// without core importing any observability package.
type DeltaEvent struct {
	// Op is "join", "leave", or "move".
	Op string
	// Client is the client that moved; Server its new server (Unassigned
	// for a leave).
	Client, Server int
	// D is the maintained global D after the event.
	D float64
	// HeapOps, PairTouches, and PairRescans are this event's share of the
	// corresponding EvaluatorStats counters.
	HeapOps, PairTouches, PairRescans int
}

// SetDeltaHook installs fn to observe every ApplyJoin / ApplyLeave /
// ApplyMove (nil removes it). The hook fires synchronously after the
// delta is applied; it must not mutate the evaluator. Plain Move calls
// (batch solvers, strategy repairs) do not fire it — the hook attributes
// control-plane events, not search iterations.
func (ev *Evaluator) SetDeltaHook(fn func(DeltaEvent)) { ev.deltaHook = fn }

// applyTracked applies one delta and feeds the hook, measuring the
// per-event work only when someone is listening.
//
//dialint:hotpath
func (ev *Evaluator) applyTracked(op string, c, s int) float64 {
	if ev.deltaHook == nil {
		return ev.move(c, s)
	}
	before := ev.stats
	d := ev.move(c, s)
	ev.deltaHook(DeltaEvent{
		Op:          op,
		Client:      c,
		Server:      s,
		D:           d,
		HeapOps:     ev.stats.HeapOps - before.HeapOps,
		PairTouches: ev.stats.PairTouches - before.PairTouches,
		PairRescans: ev.stats.PairRescans - before.PairRescans,
	})
	return d
}

// Stats returns the work counters accumulated so far.
func (ev *Evaluator) Stats() EvaluatorStats { return ev.stats }

// ResetStats zeroes the work counters.
func (ev *Evaluator) ResetStats() { ev.stats = EvaluatorStats{} }

// ApplyJoin assigns the currently-unassigned client c to server s and
// returns the new D.
func (ev *Evaluator) ApplyJoin(c, s int) (float64, error) {
	if err := ev.checkDelta(c, s); err != nil {
		return 0, err
	}
	if s == Unassigned {
		return 0, fmt.Errorf("core: join of client %d: target must be a server", c)
	}
	if ev.a[c] != Unassigned {
		return 0, fmt.Errorf("%w: join of client %d (on server %d)", ErrAlreadyAssigned, c, ev.a[c])
	}
	return ev.applyTracked("join", c, s), nil
}

// ApplyLeave removes client c from its server and returns the new D.
func (ev *Evaluator) ApplyLeave(c int) (float64, error) {
	if err := ev.checkDelta(c, Unassigned); err != nil {
		return 0, err
	}
	if ev.a[c] == Unassigned {
		return 0, fmt.Errorf("%w: leave of client %d", ErrNotAssigned, c)
	}
	return ev.applyTracked("leave", c, Unassigned), nil
}

// ApplyMove migrates the currently-assigned client c to server s and
// returns the new D. Moving a client to its current server is a no-op
// and performs no repair work.
func (ev *Evaluator) ApplyMove(c, s int) (float64, error) {
	if err := ev.checkDelta(c, s); err != nil {
		return 0, err
	}
	if s == Unassigned {
		return 0, fmt.Errorf("core: migrate of client %d: target must be a server (use ApplyLeave)", c)
	}
	if ev.a[c] == Unassigned {
		return 0, fmt.Errorf("%w: migrate of client %d", ErrNotAssigned, c)
	}
	return ev.applyTracked("move", c, s), nil
}

func (ev *Evaluator) checkDelta(c, s int) error {
	if c < 0 || c >= len(ev.a) {
		return fmt.Errorf("core: client %d out of range [0,%d)", c, len(ev.a))
	}
	if s != Unassigned && (s < 0 || s >= ev.in.NumServers()) {
		return fmt.Errorf("core: server %d out of range [0,%d)", s, ev.in.NumServers())
	}
	return nil
}

// pairPath returns the canonical interaction-path value for used
// servers s and t: the lower-indexed server's eccentricity enters the
// sum first, exactly as perfkit.MaxPathEcc associates it, so maxima
// over these values are bit-identical to MaxInteractionPath.
func (ev *Evaluator) pairPath(s, t int) float64 {
	if s > t {
		s, t = t, s
	}
	return ev.ecc[s] + ev.in.ss[s][t] + ev.ecc[t]
}

// pairOf is pairPath over given eccentricities es of s and et of t.
func (ev *Evaluator) pairOf(s int, es float64, t int, et float64) float64 {
	if s > t {
		s, t, es, et = t, s, et, es
	}
	return es + ev.in.ss[s][t] + et
}

func (ev *Evaluator) addUsed(s int) {
	ev.usedPos[s] = len(ev.used)
	ev.used = append(ev.used, s)
}

func (ev *Evaluator) removeUsed(s int) {
	i := ev.usedPos[s]
	last := len(ev.used) - 1
	ev.used[i] = ev.used[last]
	ev.usedPos[ev.used[i]] = i
	ev.used = ev.used[:last]
	ev.usedPos[s] = -1
}

// rescan rebuilds contrib[s] from scratch over the used list.
func (ev *Evaluator) rescan(s int) {
	best := math.Inf(-1)
	arg := -1
	for _, t := range ev.used {
		if v := ev.pairPath(s, t); v > best {
			best, arg = v, t
		}
	}
	ev.contrib[s], ev.argmax[s] = best, arg
	ev.push(s)
	ev.stats.PairRescans++
}

// push publishes contrib[s] to the global heap under a fresh version,
// implicitly retiring any earlier entry for s.
func (ev *Evaluator) push(s int) {
	ev.ver[s]++
	ev.top = append(ev.top, topEntry{d: ev.contrib[s], s: s, ver: ev.ver[s]})
	ev.siftUp(len(ev.top) - 1)
	// Lazy deletion lets retired entries pile up; once the heap is far
	// larger than one live entry per used server, rebuild it from the
	// live contribs (deterministic: iterates the used list).
	if len(ev.top) > 4*len(ev.used)+64 {
		ev.top = ev.top[:0]
		for _, t := range ev.used {
			ev.top = append(ev.top, topEntry{d: ev.contrib[t], s: t, ver: ev.ver[t]})
		}
		for i := len(ev.top)/2 - 1; i >= 0; i-- {
			ev.siftDown(i)
		}
	}
}

// currentD pops stale entries off the global heap and returns the live
// maximum (0 with no used servers, matching MaxPathEcc).
func (ev *Evaluator) currentD() float64 {
	for len(ev.top) > 0 {
		e := ev.top[0]
		if ev.ver[e.s] == e.ver {
			return e.d
		}
		last := len(ev.top) - 1
		ev.top[0] = ev.top[last]
		ev.top = ev.top[:last]
		if len(ev.top) > 0 {
			ev.siftDown(0)
		}
	}
	return 0
}

func (ev *Evaluator) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if ev.top[i].d <= ev.top[p].d {
			return
		}
		ev.top[i], ev.top[p] = ev.top[p], ev.top[i]
		i = p
	}
}

func (ev *Evaluator) siftDown(i int) {
	n := len(ev.top)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && ev.top[l].d > ev.top[m].d {
			m = l
		}
		if r < n && ev.top[r].d > ev.top[m].d {
			m = r
		}
		if m == i {
			return
		}
		ev.top[i], ev.top[m] = ev.top[m], ev.top[i]
		i = m
	}
}

// eccChanged repairs the pair caches after ecc[s] was updated.
// wasUsed is whether s had clients before the change.
func (ev *Evaluator) eccChanged(s int, wasUsed bool) {
	nowUsed := ev.ecc[s] >= 0
	switch {
	case !wasUsed && nowUsed:
		// s enters the used set: compute its own best pair, and offer the
		// new pairs (t, s) to every other used server. A new pair can only
		// raise another server's max, never invalidate it.
		ev.addUsed(s)
		ev.rescan(s)
		for _, t := range ev.used {
			if t == s {
				continue
			}
			ev.stats.PairTouches++
			if v := ev.pairPath(t, s); v >= ev.contrib[t] {
				ev.contrib[t], ev.argmax[t] = v, s
				ev.push(t)
			}
		}
	case wasUsed && !nowUsed:
		// s leaves the used set: retire its heap entries and rebuild any
		// server whose cached witness was s.
		ev.removeUsed(s)
		ev.ver[s]++
		for _, t := range ev.used {
			ev.stats.PairTouches++
			if ev.argmax[t] == s {
				ev.rescan(t)
			}
		}
	case wasUsed && nowUsed:
		// s stays used with a new eccentricity: its own best pair is
		// rebuilt, and every other server re-evaluates its pair with s. If
		// that pair now beats the cached max it becomes the new witness;
		// if it shrank and s was the witness, only then is a rescan
		// needed (float64 addition is monotone, so no other pair moved).
		ev.rescan(s)
		for _, t := range ev.used {
			if t == s {
				continue
			}
			ev.stats.PairTouches++
			v := ev.pairPath(t, s)
			switch {
			case v >= ev.contrib[t]:
				ev.contrib[t], ev.argmax[t] = v, s
				ev.push(t)
			case ev.argmax[t] == s:
				ev.rescan(t)
			}
		}
	}
}

// maxTracker is a lazy-deletion max-heap over float64 distances: the
// multiset of distances from one server to its clients. remove defers
// deletions into a shadow heap and cancels them when they reach the
// top, so both operations are O(log n) amortized. Distances are
// compared for cancellation by their exact bit patterns — a removed
// value is always one that was previously pushed, so bit equality is
// the correct (and deterministic) match.
//
// A tombstone below the top cancels only once it surfaces, so while a
// server's farthest client stays, every join/leave would leave one
// dead and one stale live entry behind. compact bounds that: once the
// tombstones outnumber half the live multiset, both heaps are
// cancelled against each other in one pass, keeping len(live) +
// len(dead) ≤ 2·n for n live distances.
type maxTracker struct {
	live floatMaxHeap
	dead floatMaxHeap
}

func (t *maxTracker) push(v float64) {
	t.live.push(v)
	t.settle()
}

func (t *maxTracker) remove(v float64) {
	t.dead.push(v)
	t.settle()
	if 2*len(t.dead) > len(t.live)-len(t.dead) {
		t.compact()
	}
}

// compact sorts both heaps descending in place — a descending slice is
// already a max-heap — and cancels every tombstone against a live entry
// with the same bit pattern. O(n log n), paid once per ≥ n/2 removals.
func (t *maxTracker) compact() {
	live, dead := t.live, t.dead
	sortDescending(live)
	sortDescending(dead)
	w, j := 0, 0
	for _, v := range live {
		if j < len(dead) && math.Float64bits(dead[j]) == math.Float64bits(v) {
			j++
			continue
		}
		live[w] = v
		w++
	}
	t.live, t.dead = live[:w], dead[:copy(dead, dead[j:])]
}

// sortDescending sorts v largest first. slices.Sort is specialized for
// float64, several times faster than a comparator-driven sort.
func sortDescending(v []float64) {
	slices.Sort(v)
	slices.Reverse(v)
}

// settle cancels deferred deletions sitting at the top of both heaps.
func (t *maxTracker) settle() {
	for len(t.dead) > 0 && len(t.live) > 0 &&
		math.Float64bits(t.live[0]) == math.Float64bits(t.dead[0]) {
		t.live.pop()
		t.dead.pop()
	}
}

// max returns the largest live distance, or -1 when the multiset is
// empty — the same sentinel the eccentricity vector uses for servers
// with no clients.
func (t *maxTracker) max() float64 {
	if len(t.live) == 0 {
		return -1
	}
	return t.live[0]
}

// floatMaxHeap is a plain binary max-heap over float64. Latencies are
// finite and non-negative (the matrix is validated on load), so plain >
// ordering is total here.
type floatMaxHeap []float64

func (h *floatMaxHeap) push(v float64) {
	*h = append(*h, v)
	a := *h
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[i] <= a[p] {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
}

func (h *floatMaxHeap) pop() float64 {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	*h = a[:last]
	a = *h
	i, n := 0, len(a)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && a[l] > a[m] {
			m = l
		}
		if r < n && a[r] > a[m] {
			m = r
		}
		if m == i {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	return top
}
