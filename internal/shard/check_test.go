package shard

import (
	"fmt"
	"math"

	"diacap/internal/core"
	"diacap/internal/latency"
)

// CheckSnapshot exposes checkSnapshot to the external test package.
func (p *Plane) CheckSnapshot(prev, cur *Snapshot) error { return p.checkSnapshot(prev, cur) }

// checkSnapshot verifies a published snapshot from scratch against the
// invariants the plane promises: loads and the active count match the
// flat assignment, dead servers are empty, D is bit-equal to a single
// evaluator over the unpartitioned world, D ≤ CertifiedD ≤ D + 4·MaxRho
// while the cell geometry is valid, and the epoch advanced past prev
// (nil for the first check).
func (p *Plane) checkSnapshot(prev, cur *Snapshot) error {
	if prev != nil && cur.Epoch <= prev.Epoch {
		return fmt.Errorf("epoch %d does not advance past %d", cur.Epoch, prev.Epoch)
	}
	ns := p.NumServers()
	a := cur.Assignment()
	loads := make([]int, ns)
	active := 0
	for c, s := range a {
		if s == core.Unassigned {
			continue
		}
		if s < 0 || s >= ns {
			return fmt.Errorf("client %d on server %d of %d", c, s, ns)
		}
		loads[s]++
		active++
	}
	if active != cur.Active {
		return fmt.Errorf("active %d, assignment holds %d", cur.Active, active)
	}
	for k := range loads {
		if loads[k] != cur.Loads[k] {
			return fmt.Errorf("server %d: load %d, assignment holds %d", k, cur.Loads[k], loads[k])
		}
		if !cur.Alive[k] && loads[k] > 0 {
			return fmt.Errorf("dead server %d holds %d clients", k, loads[k])
		}
	}
	p.mu.Lock()
	d, err := p.scratchD(a)
	drifted := p.drifted
	p.mu.Unlock()
	if err != nil {
		return err
	}
	if math.Float64bits(d) != math.Float64bits(cur.D) {
		return fmt.Errorf("D %v (bits %x), from-scratch evaluator %v (bits %x)",
			cur.D, math.Float64bits(cur.D), d, math.Float64bits(d))
	}
	if !drifted && (cur.CertifiedD < cur.D || cur.CertifiedD > cur.D+4*cur.MaxRho+1e-9) {
		return fmt.Errorf("certified bound %v outside [D, D + 4·maxρ] = [%v, %v]",
			cur.CertifiedD, cur.D, cur.D+4*cur.MaxRho)
	}
	return nil
}

// scratchD evaluates assignment a with a from-scratch
// MaxInteractionPath over the unpartitioned world: one matrix over
// [servers ∥ all clients] whose client-server entries are copied from
// the shard sub-instances' tables and whose server-server block is
// shard 0's server table (client-client entries never reach D and stay
// zero).
// Callers hold p.mu.
func (p *Plane) scratchD(a []int) (float64, error) {
	ns := p.NumServers()
	m := latency.NewMatrix(ns + len(a))
	for k := 0; k < ns; k++ {
		copy(m[k][:ns], p.shards[0].in.ServerServerRow(k))
	}
	for _, sh := range p.shards {
		for i, c := range sh.clients {
			for k := 0; k < ns; k++ {
				d := sh.in.ClientServerDist(i, k)
				m[ns+c][k], m[k][ns+c] = d, d
			}
		}
	}
	servers := make([]int, ns)
	clients := make([]int, len(a))
	for k := range servers {
		servers[k] = k
	}
	for c := range clients {
		clients[c] = ns + c
	}
	in, err := core.NewInstanceTrusted(m, servers, clients)
	if err != nil {
		return 0, err
	}
	return in.MaxInteractionPath(a), nil
}
