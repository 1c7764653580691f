package shard_test

import (
	"context"
	"runtime"
	"testing"

	"diacap/internal/shard"
	"diacap/internal/testkit"
)

// The snapshot read path (Current, Epoch) is annotated
// //dialint:hotpath: every live operation and every reader poll goes
// through it, so it must stay a bare atomic pointer load with no
// allocation and no lock.
func TestSnapshotReadZeroAlloc(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts include race-detector bookkeeping")
	}
	servers, clients := testCoords(t, 40, 4, 3)
	p, err := shard.New(shard.Options{Shards: 2, Servers: servers, Clients: clients})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 10; c++ {
		if _, err := p.Join(context.Background(), c); err != nil {
			t.Fatal(err)
		}
	}
	var snap *shard.Snapshot
	var epoch uint64
	if avg := testing.AllocsPerRun(1000, func() {
		snap = p.Current()
		epoch = p.Epoch()
	}); avg != 0 {
		t.Errorf("snapshot read allocates %.2f times per run, want 0", avg)
	}
	if snap == nil || snap.Epoch != epoch {
		t.Fatalf("inconsistent read: snapshot epoch %d, Epoch() %d", snap.Epoch, epoch)
	}
}

// A write republishes only its own shard's segment, one page of its
// assignment included, so Migrate allocates the same number of times
// per op at 1,600 and at 16,000 clients.
func TestPlaneMigrateAllocsIndependentOfUniverse(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts include race-detector bookkeeping")
	}
	var allocs [2]float64
	for i, n := range planeBenchSizes {
		p := benchPlane(t, n, true)
		clients, offsets := migrateTape(n, p.NumServers(), 7)
		op := 0
		allocs[i] = testing.AllocsPerRun(500, func() {
			if err := migrateOp(p, clients, offsets, op); err != nil {
				t.Fatal(err)
			}
			op++
		})
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("Migrate allocates %.2f times per op at %d clients, %.2f at %d",
			allocs[0], planeBenchSizes[0], allocs[1], planeBenchSizes[1])
	}
}

// A shard sub-instance holds only its client→server and server→server
// tables, so building the plane costs O(|C|·|S|) memory: at 16 servers,
// 4 shards and 16,000 clients shard.New stays within 32 MB of total
// allocation; four dense (|S|+|C_s|)² node matrices would take ~520 MB.
func TestPlaneNewMemoryLinearInClients(t *testing.T) {
	const limitMB = 32
	servers, clients := testCoords(t, 16000, 16, 11)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := shard.New(shard.Options{Shards: 4, Servers: servers, Clients: clients})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb > limitMB {
		t.Fatalf("shard.New over %d clients allocated %.1f MB, want ≤ %d MB", p.NumClients(), mb, limitMB)
	}
}
