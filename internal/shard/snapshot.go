package shard

import (
	"context"
	"fmt"
	"math"
	"time"

	"diacap/internal/obs"
	"diacap/internal/perfkit"
)

// ErrStaleEpoch reports a snapshot read that named an epoch other than
// the published one. It carries both epochs so callers (the HTTP layer
// surfaces it as 409 with the current epoch in a header) can tell the
// client where the world moved.
type ErrStaleEpoch struct {
	// Requested is the epoch the reader asked for.
	Requested uint64
	// Current is the epoch of the published snapshot.
	Current uint64
}

func (e *ErrStaleEpoch) Error() string {
	return fmt.Sprintf("shard: stale epoch %d (current %d)", e.Requested, e.Current)
}

// ShardSummary is one shard's contribution to the reconciled world
// state: per-server eccentricities (exact) and certified cell-level
// bounds. Summaries are what crosses the shard boundary — O(U) per
// shard, never O(clients).
type ShardSummary struct {
	// Shard is the shard id.
	Shard int
	// Active is the shard's active client count.
	Active int
	// D is the shard-local max interaction path (over this shard's
	// clients only; informational — the global D is reconciled from
	// eccentricities, not from shard-local Ds).
	D float64
	// Ecc[k] is the exact eccentricity of server k over this shard's
	// active clients (-1 when none).
	Ecc []float64
	// BoundEcc[k] over-approximates Ecc[k] from cell-level state: the
	// max over occupied cells of rep-to-server latency plus the cell
	// radius ρ (-1 when server k is empty in this shard).
	BoundEcc []float64
}

// pageSize is the number of shard-local clients per assignment page of
// a Segment. A publish copies only the pages a write touched, plus the
// dirty shard's page table of one pointer per page.
const pageSize = 64

// Segment is one shard's immutable part of a published snapshot: its
// summary, its per-server loads, and the servers of its clients. A
// publish builds a fresh segment only for a shard that changed; every
// other shard's segment is carried into the next snapshot by pointer.
type Segment struct {
	ShardSummary
	// Epoch is the epoch at which this segment was built (it lags the
	// snapshot epoch while the shard is quiet).
	Epoch uint64
	// Loads[k] is the number of this shard's clients on server k.
	Loads []int
	// pages[g][i] is the server of shard-local client g·pageSize+i, or
	// core.Unassigned. Pages a publish did not touch are shared with
	// the previous segment.
	pages [][]int
}

// serverOf returns the server of shard-local client local.
func (seg *Segment) serverOf(local int) int {
	return seg.pages[local/pageSize][local%pageSize]
}

// Snapshot is the immutable published world state. Readers obtain it
// lock-free through Current/At and must not mutate it.
type Snapshot struct {
	// Epoch is the monotone publication counter (first snapshot = 1).
	Epoch uint64
	// Loads[k] is the global load of server k (the sum of the segments'
	// loads).
	Loads []int
	// Active is the number of assigned clients.
	Active int
	// D is the exact global max interaction path, reconciled from the
	// merged per-shard eccentricities — bit-identical to a single
	// evaluator over the whole population.
	D float64
	// CertifiedD is the certified upper bound reconciled from the
	// cell-level summaries: D ≤ CertifiedD ≤ D + 4·MaxRho (each
	// endpoint eccentricity of the pair scan can overshoot its exact
	// value by at most 2·MaxRho).
	CertifiedD float64
	// MaxRho is the largest cell radius; CertifiedD - D ≤ 4·MaxRho,
	// up to the cell bounds' 2^-47 rounding margin (certifiedUp).
	MaxRho float64
	// Shards holds the per-shard segments the reconciliation consumed,
	// indexed by shard id.
	Shards []*Segment
	// Alive[k] reports whether server k is up.
	Alive []bool
	// clientShard and clientLocal are the plane's immutable client maps
	// (global id → shard, shard-local id) behind ServerOf.
	clientShard, clientLocal []int
}

// ServerOf returns the server of client c (an id of the plane's client
// universe), or core.Unassigned for an inactive client.
func (s *Snapshot) ServerOf(c int) int {
	return s.Shards[s.clientShard[c]].serverOf(s.clientLocal[c])
}

// Assignment builds the flat assignment: entry c is ServerOf(c). It
// costs O(clients), so the write path never calls it.
func (s *Snapshot) Assignment() []int {
	a := make([]int, len(s.clientShard))
	for c := range a {
		a[c] = s.ServerOf(c)
	}
	return a
}

// Current returns the published snapshot (lock-free).
//
//dialint:hotpath
func (p *Plane) Current() *Snapshot { return p.snap.Load() }

// At returns the published snapshot if its epoch is exactly epoch, and
// *ErrStaleEpoch otherwise. This is the conditional read clients use to
// detect that their cached view was retired.
func (p *Plane) At(epoch uint64) (*Snapshot, error) {
	s := p.snap.Load()
	if s.Epoch != epoch {
		p.met.staleRead()
		return nil, &ErrStaleEpoch{Requested: epoch, Current: s.Epoch}
	}
	return s, nil
}

// Epoch returns the published epoch (lock-free).
//
//dialint:hotpath
func (p *Plane) Epoch() uint64 { return p.snap.Load().Epoch }

// publishLocked builds a fresh segment for every dirty shard,
// reconciles the global state from all segments, and atomically swaps
// in the next snapshot. Callers hold p.mu. Clean shards' segments are
// reused by pointer, so a publish costs O(dirty pages · pageSize +
// shards · |S| + |S|²) plus a copy of each dirty shard's page table
// (one pointer per pageSize clients). The
// reconciliation is recorded as a plane.publish child span of the
// context's span (if traced) and every epoch bump lands in the flight
// recorder's epoch journal.
func (p *Plane) publishLocked(ctx context.Context) *Snapshot {
	start := time.Now()
	_, sp := obs.Child(ctx, "plane.publish")
	defer sp.End()
	ns := len(p.opts.Servers)
	p.epoch++
	snap := &Snapshot{
		Epoch:       p.epoch,
		Loads:       make([]int, ns),
		MaxRho:      p.maxRho,
		Shards:      make([]*Segment, len(p.shards)),
		Alive:       append([]bool(nil), p.alive...),
		clientShard: p.clientShard,
		clientLocal: p.clientLocal,
	}

	// Merged eccentricities: a server's true eccentricity over the
	// whole population is the max of its per-shard values, because the
	// shards partition the clients (max over a disjoint union = max of
	// per-part maxima, exactly, in floats as in reals).
	ecc, bound := p.eccMerge, p.boundMerge
	for k := range ecc {
		ecc[k], bound[k] = -1, -1
	}
	dirty := 0
	for _, sh := range p.shards {
		if sh.dirty {
			sh.publishSegment(p, p.epoch)
			dirty++
		}
		seg := sh.seg
		snap.Shards[sh.id] = seg
		snap.Active += seg.Active
		for k := 0; k < ns; k++ {
			snap.Loads[k] += seg.Loads[k]
			if v := seg.Ecc[k]; v > ecc[k] {
				ecc[k] = v
			}
			if v := seg.BoundEcc[k]; v > bound[k] {
				bound[k] = v
			}
		}
	}
	// Every shard's sub-instance holds the same server→server table.
	// The pair scan sums as Evaluator.D does, so D is bit-identical to
	// an unsharded evaluator over the same eccentricities.
	ss := p.shards[0].in.FlatServerServer()
	snap.D = perfkit.MaxPathEcc(ss, ecc)
	snap.CertifiedD = perfkit.MaxPathEcc(ss, bound)
	p.snap.Store(snap)
	p.met.published(snap, time.Since(start).Seconds())
	// Guarded so an uninstrumented publish skips building the attrs:
	// both calls are nil-safe no-ops, but their arguments are built
	// eagerly and every mutation passes through here.
	if sp != nil {
		sp.SetAttr(obs.Uint("epoch", snap.Epoch), obs.Int("dirty", dirty),
			obs.F64("d", snap.D), obs.F64("certifiedD", snap.CertifiedD),
			obs.Int("active", snap.Active))
	}
	if p.jEpoch != nil {
		p.jEpoch.RecordAt(start, "publish", sp.TraceID(),
			obs.Uint("epoch", snap.Epoch), obs.Int("dirty", dirty),
			obs.F64("d", snap.D), obs.Int("active", snap.Active))
	}
	return snap
}

// publishSegment replaces the shard's segment with a fresh one built at
// epoch: the summary and loads from the evaluator (O(|S|)), the
// certified bound from the incrementally kept boundEcc, a copy of the
// page table, and a copy of each dirty assignment page; every other
// page is shared with the previous segment. Callers hold p.mu.
func (sh *shardState) publishSegment(p *Plane, epoch uint64) {
	ns := len(p.opts.Servers)
	vals := make([]float64, 2*ns)
	seg := &Segment{
		ShardSummary: ShardSummary{
			Shard:    sh.id,
			Active:   sh.active,
			D:        sh.ev.D(),
			Ecc:      vals[:ns:ns],
			BoundEcc: vals[ns:],
		},
		Epoch: epoch,
		Loads: make([]int, ns),
		pages: append([][]int(nil), sh.seg.pages...),
	}
	for k := 0; k < ns; k++ {
		seg.Ecc[k] = sh.ev.Eccentricity(k)
		seg.Loads[k] = sh.ev.Load(k)
	}
	// After coordinate drift the cell geometry no longer describes the
	// live metric, so the only honest certificate is the exact value.
	if p.drifted {
		copy(seg.BoundEcc, seg.Ecc)
	} else {
		copy(seg.BoundEcc, sh.boundEcc)
	}
	for g, dirty := range sh.pageDirty {
		if dirty {
			page := make([]int, min(pageSize, len(sh.clients)-g*pageSize))
			sh.ev.CopyAssignment(page, g*pageSize)
			seg.pages[g] = page
			sh.pageDirty[g] = false
		}
	}
	sh.seg = seg
	sh.dirty = false
}

// ShardHealth is one shard's health line as exposed by /healthz: its
// current summary epoch (the plane epoch at which the summary was last
// rebuilt — a lagging value marks a quiet shard, not a broken one),
// active client count, and last repair-pass wall time (zero until the
// first RepairShard).
type ShardHealth struct {
	Shard        int       `json:"shard"`
	SummaryEpoch uint64    `json:"summaryEpoch"`
	Active       int       `json:"active"`
	LastRepair   time.Time `json:"lastRepair"`
}

// Health reports per-shard health for liveness endpoints: one entry per
// shard, ascending shard id.
func (p *Plane) Health() []ShardHealth {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]ShardHealth, len(p.shards))
	for i, sh := range p.shards {
		out[i] = ShardHealth{
			Shard:        sh.id,
			SummaryEpoch: sh.seg.Epoch,
			Active:       sh.active,
			LastRepair:   sh.lastRepair,
		}
	}
	return out
}

// CertGap returns the published certified-bound slack CertifiedD - D,
// clamped at zero (the bound can be tight).
func (s *Snapshot) CertGap() float64 {
	return math.Max(0, s.CertifiedD-s.D)
}
