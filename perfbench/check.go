package main

// Output checkers. Each returns nil for a correct answer and an error
// naming the first fault otherwise; the generator counts every error as
// a failed request.

import (
	"encoding/json"
	"fmt"
	"math"

	"diacap/internal/core"
	"diacap/internal/latency"
	"diacap/internal/service"
)

// relTol is the tolerance for a D recomputed from coordinates in a
// different association order than the server's.
const relTol = 1e-9

func closeRel(got, want float64) bool {
	return math.Abs(got-want) <= relTol*math.Max(math.Abs(want), 1)
}

// CheckRead verifies a read answer against the brute-force reference:
// one answer per coordinate, each the nearest server with its exact
// latency.
func CheckRead(rb *ReadBody, body []byte) error {
	var servers []int
	var lats []float64
	if rb.Kind == kindOne {
		var r service.AssignOneResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("read: decoding answer: %w", err)
		}
		servers, lats = []int{r.Server}, []float64{r.LatencyMs}
	} else {
		var r service.AssignBatchResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("read: decoding answer: %w", err)
		}
		servers, lats = r.Servers, r.LatencyMs
	}
	if len(servers) != len(rb.Want) || len(lats) != len(rb.Want) {
		return fmt.Errorf("read: %d servers and %d latencies for %d coordinates", len(servers), len(lats), len(rb.Want))
	}
	for i, want := range rb.Want {
		if servers[i] != want {
			return fmt.Errorf("read: coordinate %d got server %d, nearest is %d", i, servers[i], want)
		}
		if lats[i] != rb.WantLat[i] {
			return fmt.Errorf("read: coordinate %d got latency %v, want %v", i, lats[i], rb.WantLat[i])
		}
	}
	return nil
}

// WriteChecker verifies the write answers of one ordered connection.
type WriteChecker struct {
	lastEpoch uint64
	// LastD is the d of the last accepted write.
	LastD float64
	n     int
}

// Check verifies one write answer: the epoch strictly increases and an
// explicit migration lands on its target.
func (wc *WriteChecker) Check(op *WriteOp, body []byte) error {
	var r service.ShardAssignResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("write: decoding answer: %w", err)
	}
	return wc.CheckResult(op, r.Epoch, r.Server, r.D)
}

// CheckResult verifies one applied write given its published epoch,
// the client's resulting server and the published D.
func (wc *WriteChecker) CheckResult(op *WriteOp, epoch uint64, server int, d float64) error {
	if wc.n > 0 && epoch <= wc.lastEpoch {
		return fmt.Errorf("write: epoch %d after %d", epoch, wc.lastEpoch)
	}
	if op.Kind == opMigrateTo && server != op.Target {
		return fmt.Errorf("write: migrate to %d landed on %d", op.Target, server)
	}
	wc.lastEpoch, wc.LastD = epoch, d
	wc.n++
	return nil
}

// eccD is D recomputed from coordinates: the largest
// ecc(s) + d(s, t) + ecc(t) over servers holding clients, where ecc is a
// server's farthest client and a server is at distance 0 from itself.
func eccD(clients, servers []latency.Coord, assign []int) float64 {
	ecc := make([]float64, len(servers))
	for k := range ecc {
		ecc[k] = -1
	}
	for i, s := range assign {
		if s < 0 {
			continue
		}
		if d := clients[i].LatencyTo(servers[s]); d > ecc[s] {
			ecc[s] = d
		}
	}
	best := 0.0
	for s := range servers {
		if ecc[s] < 0 {
			continue
		}
		for t := s; t < len(servers); t++ {
			if ecc[t] < 0 {
				continue
			}
			st := 0.0
			if s != t {
				st = servers[s].LatencyTo(servers[t])
			}
			best = math.Max(best, ecc[s]+st+ecc[t])
		}
	}
	return best
}

// checkLoads verifies that loads count the assignment and, when caps is
// non-nil, stay within it.
func checkLoads(assign, loads, caps []int, servers int) error {
	if len(loads) != servers {
		return fmt.Errorf("%d loads for %d servers", len(loads), servers)
	}
	count := make([]int, servers)
	for i, s := range assign {
		if s < -1 || s >= servers {
			return fmt.Errorf("client %d on server %d of %d", i, s, servers)
		}
		if s >= 0 {
			count[s]++
		}
	}
	for k := range count {
		if count[k] != loads[k] {
			return fmt.Errorf("server %d reports load %d, holds %d clients", k, loads[k], count[k])
		}
		if caps != nil && loads[k] > caps[k] {
			return fmt.Errorf("server %d load %d over capacity %d", k, loads[k], caps[k])
		}
	}
	return nil
}

// CheckSnapshot verifies a published snapshot: exactly the expected
// clients are active, loads match the assignment, and D matches a
// from-scratch recompute from the coordinates and, when lastD is not
// NaN, the d of the last write.
func CheckSnapshot(u *Universe, active []bool, body []byte, lastD float64) (*service.ShardSnapshotResponse, error) {
	var snap service.ShardSnapshotResponse
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, fmt.Errorf("snapshot: decoding: %w", err)
	}
	if len(snap.Assignment) != len(u.Clients) {
		return nil, fmt.Errorf("snapshot: assignment of %d clients, universe has %d", len(snap.Assignment), len(u.Clients))
	}
	n := 0
	for c, s := range snap.Assignment {
		if (s >= 0) != active[c] {
			return nil, fmt.Errorf("snapshot: client %d on server %d, expected active=%v", c, s, active[c])
		}
		if s >= 0 {
			n++
		}
	}
	if snap.Active != n {
		return nil, fmt.Errorf("snapshot: active %d, assignment holds %d", snap.Active, n)
	}
	if err := checkLoads(snap.Assignment, snap.Loads, nil, len(u.Servers)); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if want := eccD(u.Clients, u.Servers, snap.Assignment); !closeRel(snap.D, want) {
		return nil, fmt.Errorf("snapshot: D %v, recompute from coordinates gives %v", snap.D, want)
	}
	if !math.IsNaN(lastD) && snap.D != lastD {
		return nil, fmt.Errorf("snapshot: D %v, last write published %v", snap.D, lastD)
	}
	return &snap, nil
}

// CheckPlan verifies a planning answer and returns its D: exactD for
// coords requests, d for matrix requests.
func CheckPlan(pc *PlanCycle, kind int, body []byte) (float64, error) {
	if kind <= planCoordsCap {
		var r service.AssignCoordsResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return 0, fmt.Errorf("plan %s: decoding: %w", planKindNames[kind], err)
		}
		return r.ExactD, checkCoords(pc, kind, &r)
	}
	var r service.AssignResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, fmt.Errorf("plan %s: decoding: %w", planKindNames[kind], err)
	}
	return r.D, checkMatrix(pc, kind, &r)
}

func checkCoords(pc *PlanCycle, kind int, r *service.AssignCoordsResponse) error {
	name := planKindNames[kind]
	if len(r.Servers) != len(pc.PlacedSrvs) {
		return fmt.Errorf("plan %s: %d servers, placed %d", name, len(r.Servers), len(pc.PlacedSrvs))
	}
	for k := range r.Servers {
		if r.Servers[k] != pc.PlacedSrvs[k] {
			return fmt.Errorf("plan %s: server %d is %+v, placement gives %+v", name, k, r.Servers[k], pc.PlacedSrvs[k])
		}
	}
	if len(r.Assignment) != len(pc.Clients) {
		return fmt.Errorf("plan %s: %d assigned of %d clients", name, len(r.Assignment), len(pc.Clients))
	}
	for i, s := range r.Assignment {
		if s < 0 {
			return fmt.Errorf("plan %s: client %d unassigned", name, i)
		}
	}
	var caps []int
	if kind == planCoordsCap {
		caps = pc.Capacities
	}
	if err := checkLoads(r.Assignment, r.Loads, caps, len(r.Servers)); err != nil {
		return fmt.Errorf("plan %s: %w", name, err)
	}
	if want := eccD(pc.Clients, r.Servers, r.Assignment); !closeRel(r.ExactD, want) {
		return fmt.Errorf("plan %s: exactD %v, recompute gives %v", name, r.ExactD, want)
	}
	if r.ExactD > r.CertifiedD {
		return fmt.Errorf("plan %s: exactD %v above certifiedD %v", name, r.ExactD, r.CertifiedD)
	}
	return nil
}

func checkMatrix(pc *PlanCycle, kind int, r *service.AssignResponse) error {
	name := planKindNames[kind]
	clients := make([]int, len(pc.Matrix))
	for i := range clients {
		clients[i] = i
	}
	in, err := core.NewInstanceTrusted(pc.Matrix, pc.MatrixSrvs, clients)
	if err != nil {
		return fmt.Errorf("plan %s: reference instance: %w", name, err)
	}
	if len(r.Assignment) != len(clients) {
		return fmt.Errorf("plan %s: %d assigned of %d clients", name, len(r.Assignment), len(clients))
	}
	for i, s := range r.Assignment {
		if s < 0 || s >= len(pc.MatrixSrvs) {
			return fmt.Errorf("plan %s: client %d on server %d", name, i, s)
		}
	}
	if err := checkLoads(r.Assignment, r.Loads, nil, len(pc.MatrixSrvs)); err != nil {
		return fmt.Errorf("plan %s: %w", name, err)
	}
	if want := in.MaxPathReference(core.Assignment(r.Assignment)); !closeRel(r.D, want) {
		return fmt.Errorf("plan %s: d %v, reference gives %v", name, r.D, want)
	}
	if r.LowerBound <= 0 || r.LowerBound > r.D*(1+relTol) {
		return fmt.Errorf("plan %s: lower bound %v against d %v", name, r.LowerBound, r.D)
	}
	if len(r.ServerAhead) != len(pc.MatrixSrvs) {
		return fmt.Errorf("plan %s: %d offsets for %d servers", name, len(r.ServerAhead), len(pc.MatrixSrvs))
	}
	return nil
}
