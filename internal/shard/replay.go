package shard

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sort"

	"diacap/internal/core"
	"diacap/internal/dynamic"
	"diacap/internal/latency"
	"diacap/internal/obs"
)

// NewFromPopulation builds a plane over a scenario population: the
// population's coordinates become the plane's server and client
// coordinates, and node ids are recorded so coordinate-drift snapshots
// (full re-materialized matrices) can be sliced into per-shard
// sub-instances. opts.Servers and opts.Clients are derived from pop and
// must be left nil.
func NewFromPopulation(pop *dynamic.Population, opts Options) (*Plane, error) {
	if pop == nil || pop.Instance == nil {
		return nil, errors.New("shard: nil population")
	}
	if opts.Servers != nil || opts.Clients != nil {
		return nil, errors.New("shard: NewFromPopulation derives Servers/Clients from the population")
	}
	opts.Servers = make([]latency.Coord, len(pop.Servers))
	for k, n := range pop.Servers {
		opts.Servers[k] = pop.Coords[n]
	}
	opts.Clients = make([]latency.Coord, len(pop.Clients))
	for i, n := range pop.Clients {
		opts.Clients[i] = pop.Coords[n]
	}
	p, err := New(opts)
	if err != nil {
		return nil, err
	}
	p.serverNodes = append([]int(nil), pop.Servers...)
	p.clientNodes = append([]int(nil), pop.Clients...)
	// Re-slice every sub-instance from the population's own matrix
	// rather than keeping the coordinate-rebuilt ones: LatencyTo sums
	// the two endpoint heights in argument order, so a rebuilt entry can
	// differ from the population entry in the last ulp when the node
	// order and the [servers ∥ clients] order disagree. Slicing keeps
	// the plane bit-identical to an unsharded evaluator over pop.Instance.
	p.mu.Lock()
	err = p.resliceLocked(pop.Instance.Matrix())
	p.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return p, nil
}

// resliceLocked rebuilds every shard's sub-instance as a bitwise slice
// of a full population matrix m (node-indexed), preserving assignments. A sub-instance copies only its
// client→server and server→server tables out of m, never an
// (|S|+|C_s|)² submatrix. Callers hold p.mu.
func (p *Plane) resliceLocked(m latency.Matrix) error {
	for _, sh := range p.shards {
		clients := make([]int, len(sh.clients))
		for i, c := range sh.clients {
			clients[i] = p.clientNodes[c]
		}
		in, err := core.NewInstanceTrusted(m, p.serverNodes, clients)
		if err != nil {
			return fmt.Errorf("shard %d: reslice: %w", sh.id, err)
		}
		ev, err := in.NewEvaluator(sh.ev.Assignment())
		if err != nil {
			return fmt.Errorf("shard %d: reslice: %w", sh.id, err)
		}
		sh.in, sh.ev = in, ev
		sh.dirty = true
		// The fresh evaluator dropped the previous delta hook; reattach.
		p.installHooks(sh)
	}
	return nil
}

// ApplyDriftMatrix re-materializes every shard's sub-instance from a
// drifted full-population matrix (node-indexed like the population the
// plane was built from), preserving assignments. Each shard gets a
// fresh incremental evaluator over the new geometry; the certified
// bound degrades to the exact eccentricities from here on, because the
// cell radii no longer describe the live metric.
func (p *Plane) ApplyDriftMatrix(ctx context.Context, m latency.Matrix) error {
	if p.serverNodes == nil {
		return errors.New("shard: drift requires a population-built plane (NewFromPopulation)")
	}
	ctx, sp := obs.Child(ctx, "plane.drift")
	defer sp.End()
	p.mu.Lock()
	defer p.mu.Unlock()
	defer p.begin(sp)()
	if err := p.resliceLocked(m); err != nil {
		return err
	}
	p.drifted = true
	p.met.event("drift")
	s := p.publishLocked(ctx)
	sp.SetAttr(obs.Uint("epoch", s.Epoch), obs.F64("d", s.D))
	return nil
}

// ReplayResult scores one scenario replay through the plane.
type ReplayResult struct {
	dynamic.ScenarioResult
	// FinalEpoch is the published epoch after the last event.
	FinalEpoch uint64
	// FinalCertifiedD is the published certified bound at the end.
	FinalCertifiedD float64
	// MaxCertGap is the largest observed CertifiedD - D over the run.
	MaxCertGap float64
	// ShardEvents[s] counts join/leave/migrate events shard s absorbed.
	ShardEvents []int
}

// replayEvent mirrors the scenario simulator's merged tape: leaves
// first at equal times (freeing capacity), then restarts, then kills,
// then joins, then drift.
type replayEvent struct {
	time float64
	kind int // 0 leave, 1 restart, 2 kill, 3 join, 4 drift
	id   int
}

// Replay drives a finalized scenario through the plane: churn routes to
// the owning shards' strategies, kills evacuate through the plane,
// drift re-materializes every sub-instance, and after every event the
// affected shards repair and the capacity invariant is re-checked. The
// event semantics — tape ordering, evacuation order, effective
// capacities, repair cadence — match dynamic.SimulateScenario, so a
// one-shard replay reproduces the unsharded simulation bit-for-bit.
//
// When the plane has a tracer, every tape event is stamped with its own
// root span (replay.join, replay.leave, replay.kill, replay.restart,
// replay.drift) whose children are the plane operation and the repair
// passes it triggered. With a seeded tracer at sample rate 1 the
// resulting span forest is deterministic: same scenario, same seed,
// same tree.
func (p *Plane) Replay(ctx context.Context, sc *dynamic.Scenario) (*ReplayResult, error) {
	if sc == nil {
		return nil, errors.New("shard: nil scenario")
	}
	if sc.Pop == nil || sc.Pop.Instance == nil {
		return nil, errors.New("shard: scenario has no population")
	}
	if sc.Pop.Instance.NumClients() != p.NumClients() || len(sc.Pop.Servers) != p.NumServers() {
		return nil, fmt.Errorf("shard: scenario population (%d clients, %d servers) does not match plane (%d, %d)",
			sc.Pop.Instance.NumClients(), len(sc.Pop.Servers), p.NumClients(), p.NumServers())
	}

	tape := make([]replayEvent, 0, len(sc.Events)+2*len(sc.Kills)+len(sc.Snapshots))
	for i, e := range sc.Events {
		k := 3
		if e.Kind == dynamic.Leave {
			k = 0
		}
		tape = append(tape, replayEvent{time: e.Time, kind: k, id: i})
	}
	for i, kill := range sc.Kills {
		tape = append(tape, replayEvent{time: kill.Time, kind: 2, id: i})
		if kill.RestartAt > kill.Time && kill.RestartAt < sc.Horizon {
			tape = append(tape, replayEvent{time: kill.RestartAt, kind: 1, id: i})
		}
	}
	for i := range sc.Snapshots {
		tape = append(tape, replayEvent{time: sc.Snapshots[i].Time, kind: 4, id: i})
	}
	sort.SliceStable(tape, func(i, j int) bool {
		if c := cmp.Compare(tape[i].time, tape[j].time); c != 0 {
			return c < 0
		}
		return tape[i].kind < tape[j].kind
	})

	res := &ReplayResult{ShardEvents: make([]int, p.NumShards())}
	res.Strategy = p.shards[0].strat.Name()
	prevT, prevD := 0.0, 0.0
	var integral float64
	record := func(t float64) {
		s := p.Current()
		integral += prevD * (t - prevT)
		prevT, prevD = t, s.D
		if s.D > res.MaxD {
			res.MaxD = s.D
		}
		if gap := s.CertGap(); gap > res.MaxCertGap {
			res.MaxCertGap = gap
		}
		res.Timeline = append(res.Timeline, dynamic.TimelinePoint{Time: t, D: s.D})
	}
	// repairAfter runs the strategy repair for the affected shards
	// (every shard for global events) and re-checks the capacity
	// invariant, mirroring the scenario simulator's per-event cadence.
	repairAfter := func(ctx context.Context, t float64, shards ...int) error {
		if len(shards) == 0 {
			for s := 0; s < p.NumShards(); s++ {
				shards = append(shards, s)
			}
		}
		for _, s := range shards {
			moves, err := p.RepairShard(ctx, s, t)
			if err != nil {
				return err
			}
			res.RepairMoves += moves
		}
		return p.checkInvariant(t)
	}
	spanNames := [5]string{"replay.leave", "replay.restart", "replay.kill", "replay.join", "replay.drift"}

	for _, te := range tape {
		if te.time > sc.Horizon {
			break
		}
		ectx, esp := p.tracer.Root(ctx, spanNames[te.kind])
		esp.SetAttr(obs.F64("time", te.time))
		err := func() error {
			defer esp.End()
			switch te.kind {
			case 3: // join
				e := sc.Events[te.id]
				r, err := p.Join(ectx, e.Client)
				if err != nil {
					return fmt.Errorf("shard: join of client %d at t=%.1f: %w", e.Client, e.Time, err)
				}
				res.Joins++
				res.ShardEvents[r.Shard]++
				esp.SetAttr(obs.Int("client", e.Client), obs.Int("shard", r.Shard))
				return repairAfter(ectx, te.time, r.Shard)
			case 0: // leave
				e := sc.Events[te.id]
				r, err := p.Leave(ectx, e.Client)
				if err != nil {
					return fmt.Errorf("shard: leave of client %d at t=%.1f: %w", e.Client, e.Time, err)
				}
				res.Leaves++
				res.ShardEvents[r.Shard]++
				esp.SetAttr(obs.Int("client", e.Client), obs.Int("shard", r.Shard))
				return repairAfter(ectx, te.time, r.Shard)
			case 2: // kill
				k := sc.Kills[te.id].Server
				wasAlive := p.ServerAlive(k)
				_, evacuated, err := p.KillServer(ectx, k)
				if err != nil {
					return fmt.Errorf("shard: kill of server %d at t=%.1f: %w", k, te.time, err)
				}
				res.ForcedMoves += evacuated
				if wasAlive {
					res.KillsApplied++
				}
				esp.SetAttr(obs.Int("server", k), obs.Int("evacuated", evacuated))
				return repairAfter(ectx, te.time)
			case 1: // restart
				k := sc.Kills[te.id].Server
				wasAlive := p.ServerAlive(k)
				if _, err := p.RestartServer(ectx, k); err != nil {
					return err
				}
				if !wasAlive {
					res.Restarts++
				}
				esp.SetAttr(obs.Int("server", k))
				return repairAfter(ectx, te.time)
			default: // 4: drift
				snap := sc.Snapshots[te.id]
				if err := p.ApplyDriftMatrix(ectx, snap.Instance.Matrix()); err != nil {
					return fmt.Errorf("shard: drift at t=%.1f: %w", snap.Time, err)
				}
				res.DriftSteps++
				return repairAfter(ectx, te.time)
			}
		}()
		if err != nil {
			return nil, err
		}
		record(te.time)
	}
	integral += prevD * (sc.Horizon - prevT)
	res.TimeAvgD = integral / sc.Horizon
	final := p.Current()
	res.FinalD = final.D
	res.FinalEpoch = final.Epoch
	res.FinalCertifiedD = final.CertifiedD
	for _, sh := range p.shards {
		if h, ok := sh.strat.(*dynamic.Hysteresis); ok {
			prop, moves := h.Suppressed()
			res.SuppressedProposals += prop
			res.SuppressedMoves += moves
		}
	}
	return res, nil
}

// ServerAlive reports whether server k is up in the published state.
func (p *Plane) ServerAlive(k int) bool {
	s := p.snap.Load()
	return k >= 0 && k < len(s.Alive) && s.Alive[k]
}

// checkInvariant verifies no shard exceeds its effective capacities and
// no client sits on a dead server.
func (p *Plane) checkInvariant(t float64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, sh := range p.shards {
		for k := 0; k < sh.in.NumServers(); k++ {
			if !p.alive[k] && sh.ev.Load(k) > 0 {
				return fmt.Errorf("shard %d: %d clients on dead server %d at t=%.1f",
					sh.id, sh.ev.Load(k), k, t)
			}
			if sh.effCaps != nil && sh.ev.Load(k) > sh.effCaps[k] {
				return fmt.Errorf("shard %d: capacity violation on server %d at t=%.1f: load %d > cap %d",
					sh.id, k, t, sh.ev.Load(k), sh.effCaps[k])
			}
		}
	}
	return nil
}
