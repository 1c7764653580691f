package core

import (
	"math"
	"testing"

	"diacap/internal/latency"
)

// TestTrackerTombstonesStayBounded churns one client on and off a
// server whose farthest client stays put. Each leave's tombstone sits
// below the live top and never surfaces on its own, so without
// compaction both distance heaps of that server grow by one entry per
// join/leave pair for as long as the plane runs.
func TestTrackerTombstonesStayBounded(t *testing.T) {
	m := latency.ScaledLike(40, 3)
	servers := []int{0, 1, 2, 3}
	clients := make([]int, 0, 36)
	for i := 4; i < 40; i++ {
		clients = append(clients, i)
	}
	in, err := NewInstanceTrusted(m, servers, clients)
	if err != nil {
		t.Fatal(err)
	}
	a := make(Assignment, in.NumClients())
	for c := range a {
		a[c] = c % len(servers)
	}
	ev, err := in.NewEvaluator(a)
	if err != nil {
		t.Fatal(err)
	}

	// A client on server 0 strictly nearer than that server's farthest.
	const s = 0
	churn := -1
	for c, k := range a {
		if k == s && ev.in.cs[c][s] < ev.ecc[s] {
			churn = c
			break
		}
	}
	if churn < 0 {
		t.Fatal("no client nearer than server 0's farthest")
	}
	wantD := math.Float64bits(ev.D())

	const pairs = 100_000
	for i := 0; i < pairs; i++ {
		if _, err := ev.ApplyLeave(churn); err != nil {
			t.Fatal(err)
		}
		d, err := ev.ApplyJoin(churn, s)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(d) != wantD {
			t.Fatalf("pair %d: D = %v, want %v", i, d, math.Float64frombits(wantD))
		}
	}
	for k := range servers {
		tr := &ev.trackers[k]
		if n := len(tr.live) + len(tr.dead); n > 2*ev.loads[k]+64 {
			t.Errorf("server %d: %d live + %d dead heap entries for load %d",
				k, len(tr.live), len(tr.dead), ev.loads[k])
		}
		if got := tr.max(); math.Float64bits(got) != math.Float64bits(ev.ecc[k]) {
			t.Errorf("server %d: tracker max %v, ecc %v", k, got, ev.ecc[k])
		}
	}
	if got := in.MaxInteractionPath(ev.Assignment()); math.Float64bits(got) != wantD {
		t.Fatalf("recomputed D = %v, maintained %v", got, math.Float64frombits(wantD))
	}
}
