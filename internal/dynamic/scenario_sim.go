package dynamic

import (
	"cmp"
	"errors"
	"fmt"
	"sort"

	"diacap/internal/core"
)

// ScenarioResult scores one strategy over one scenario.
type ScenarioResult struct {
	Result
	// ForcedMoves counts failover reassignments: clients evacuated from
	// killed servers. They are disruption the strategy did not choose,
	// so they are tracked apart from RepairMoves.
	ForcedMoves int
	// KillsApplied and Restarts count processed failure events.
	KillsApplied, Restarts int
	// DriftSteps counts instance re-materializations from drifted
	// coordinates.
	DriftSteps int
	// SuppressedProposals and SuppressedMoves mirror Hysteresis
	// counters when the strategy is hysteresis-wrapped (zero otherwise).
	SuppressedProposals, SuppressedMoves int
}

// scenario event stream: churn, kills, restarts, and drift snapshots
// merged into one time-ordered tape.
type scenKind int

const (
	scenLeave   scenKind = iota // leaves first at ties: frees capacity
	scenRestart                 // then restarts: adds capacity
	scenKill                    // then kills: evacuations see restarts
	scenJoin                    // then joins
	scenDrift                   // drift last: D recorded on the new geometry
)

type scenEvent struct {
	time float64
	kind scenKind
	id   int // client, server, or snapshot index depending on kind
}

// SimulateScenario replays a finalized scenario against a strategy.
//
// Server kills become capacity: a dead server's effective capacity is
// zero, its clients are evacuated through the strategy's own PlaceJoin
// (counted as ForcedMoves), and joins and repairs run against the
// degraded capacities until the restart. Drift snapshots swap the
// evaluator onto the re-materialized instance while preserving the
// assignment — the strategies read geometry through the evaluator, so
// the same strategy values keep running across snapshots.
//
// After every event the capacity invariant is re-checked; a violation
// is a bug in the strategy (or this simulator) and fails the run with a
// typed error rather than corrupting results. Bursts that exceed total
// remaining capacity fail with ErrCapacityExhausted.
func SimulateScenario(sc *Scenario, caps core.Capacities, strat Strategy) (*ScenarioResult, error) {
	if sc == nil || strat == nil {
		return nil, errors.New("dynamic: nil scenario or strategy")
	}
	if !sc.finalized {
		return nil, fmt.Errorf("dynamic: scenario %s not finalized", sc.Name)
	}
	in := sc.Pop.Instance
	if caps != nil {
		if err := in.ValidateCapacities(caps); err != nil {
			return nil, err
		}
	}

	tape := make([]scenEvent, 0, len(sc.Events)+2*len(sc.Kills)+len(sc.Snapshots))
	for i, e := range sc.Events {
		k := scenJoin
		if e.Kind == Leave {
			k = scenLeave
		}
		tape = append(tape, scenEvent{time: e.Time, kind: k, id: i})
	}
	for i, k := range sc.Kills {
		tape = append(tape, scenEvent{time: k.Time, kind: scenKill, id: i})
		if k.RestartAt > k.Time && k.RestartAt < sc.Horizon {
			tape = append(tape, scenEvent{time: k.RestartAt, kind: scenRestart, id: i})
		}
	}
	for i, s := range sc.Snapshots {
		tape = append(tape, scenEvent{time: s.Time, kind: scenDrift, id: i})
	}
	sort.SliceStable(tape, func(i, j int) bool {
		if c := cmp.Compare(tape[i].time, tape[j].time); c != 0 {
			return c < 0
		}
		return tape[i].kind < tape[j].kind
	})

	ev, err := in.NewEvaluator(core.NewAssignment(in.NumClients()))
	if err != nil {
		return nil, err
	}
	res := &ScenarioResult{Result: Result{Strategy: strat.Name()}}

	alive := make([]bool, in.NumServers())
	for k := range alive {
		alive[k] = true
	}
	deadCount := 0
	// effCaps is the strategy-visible capacity vector: caller caps with
	// dead servers clamped to zero. Nil while nothing is dead and the
	// caller passed nil (unlimited).
	effCaps := caps
	rebuildCaps := func() {
		if deadCount == 0 {
			effCaps = caps
			return
		}
		effCaps = make(core.Capacities, in.NumServers())
		for k := range effCaps {
			switch {
			case !alive[k]:
				effCaps[k] = 0
			case caps != nil:
				effCaps[k] = caps[k]
			default:
				effCaps[k] = in.NumClients()
			}
		}
	}

	prevT, prevD := 0.0, 0.0
	var integral float64
	record := func(t, d float64) {
		integral += prevD * (t - prevT)
		prevT, prevD = t, d
		if d > res.MaxD {
			res.MaxD = d
		}
		res.Timeline = append(res.Timeline, TimelinePoint{Time: t, D: d})
	}
	// place runs the strategy's join path with full validation; forced
	// marks kill evacuations (which tolerate an already-placed caller).
	place := func(c int, t float64, forced bool) error {
		s := strat.PlaceJoin(ev, effCaps, c)
		if s < 0 {
			if !anyCapacityLeft(ev, effCaps) {
				return fmt.Errorf("dynamic: %s: %s of client %d at t=%.1f: %w",
					strat.Name(), joinWord(forced), c, t, ErrCapacityExhausted)
			}
			return fmt.Errorf("dynamic: %s returned server %d for %s", strat.Name(), s, joinWord(forced))
		}
		if s >= in.NumServers() {
			return fmt.Errorf("dynamic: %s returned server %d for %s", strat.Name(), s, joinWord(forced))
		}
		if effCaps != nil && ev.Load(s) >= effCaps[s] {
			return fmt.Errorf("dynamic: %s placed a %s on saturated server %d", strat.Name(), joinWord(forced), s)
		}
		ev.Move(c, s)
		return nil
	}
	checkInvariant := func(t float64) error {
		for k := 0; k < in.NumServers(); k++ {
			if !alive[k] && ev.Load(k) > 0 {
				return fmt.Errorf("dynamic: %s left %d clients on dead server %d at t=%.1f",
					strat.Name(), ev.Load(k), k, t)
			}
			if effCaps != nil && ev.Load(k) > effCaps[k] {
				return fmt.Errorf("dynamic: %s: capacity violation on server %d at t=%.1f: load %d > cap %d",
					strat.Name(), k, t, ev.Load(k), effCaps[k])
			}
		}
		return nil
	}

	for _, te := range tape {
		if te.time > sc.Horizon {
			break
		}
		switch te.kind {
		case scenJoin, scenLeave:
			e := sc.Events[te.id]
			if e.Client < 0 || e.Client >= in.NumClients() {
				return nil, fmt.Errorf("dynamic: event client %d out of range", e.Client)
			}
			if te.kind == scenJoin {
				if ev.ServerOf(e.Client) != core.Unassigned {
					return nil, fmt.Errorf("dynamic: client %d joined twice", e.Client)
				}
				if err := place(e.Client, e.Time, false); err != nil {
					return nil, err
				}
				res.Joins++
			} else {
				if ev.ServerOf(e.Client) == core.Unassigned {
					return nil, fmt.Errorf("dynamic: client %d left while inactive", e.Client)
				}
				ev.Move(e.Client, core.Unassigned)
				res.Leaves++
			}
		case scenKill:
			k := sc.Kills[te.id].Server
			if !alive[k] {
				break // double kill in overlapping storms: idempotent
			}
			alive[k] = false
			deadCount++
			rebuildCaps()
			res.KillsApplied++
			// Evacuate in ascending client order for determinism.
			for c := 0; c < in.NumClients(); c++ {
				if ev.ServerOf(c) != k {
					continue
				}
				ev.Move(c, core.Unassigned)
				if err := place(c, te.time, true); err != nil {
					return nil, err
				}
				res.ForcedMoves++
			}
		case scenRestart:
			k := sc.Kills[te.id].Server
			if alive[k] {
				break
			}
			alive[k] = true
			deadCount--
			rebuildCaps()
			res.Restarts++
		case scenDrift:
			snap := sc.Snapshots[te.id]
			fresh, err := snap.Instance.NewEvaluator(ev.Assignment())
			if err != nil {
				return nil, fmt.Errorf("dynamic: drift snapshot at t=%.1f: %w", snap.Time, err)
			}
			ev = fresh
			res.DriftSteps++
		}
		res.RepairMoves += strat.Repair(ev, effCaps, te.time)
		if err := checkInvariant(te.time); err != nil {
			return nil, err
		}
		record(te.time, ev.D())
	}
	integral += prevD * (sc.Horizon - prevT)
	res.TimeAvgD = integral / sc.Horizon
	res.FinalD = ev.D()
	if h, ok := strat.(*Hysteresis); ok {
		res.SuppressedProposals, res.SuppressedMoves = h.Suppressed()
	}
	return res, nil
}

func joinWord(forced bool) string {
	if forced {
		return "forced rejoin"
	}
	return "join"
}
