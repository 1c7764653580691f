package shard_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"diacap/internal/core"
	"diacap/internal/dynamic"
	"diacap/internal/latency"
	"diacap/internal/obs"
	"diacap/internal/shard"
)

// testCoords generates a seeded universe: ns server coordinates and n
// client coordinates from one synthetic pool.
func testCoords(t testing.TB, n, ns int, seed int64) (servers, clients []latency.Coord) {
	t.Helper()
	cs, err := latency.GenerateCoords(latency.DefaultConfig(n+ns), seed)
	if err != nil {
		t.Fatal(err)
	}
	return cs[:ns], cs[ns:]
}

// globalD rebuilds the unpartitioned world from a snapshot assignment
// and returns its exact D — the oracle every published snapshot must
// bit-match.
func globalD(t testing.TB, servers, clients []latency.Coord, a []int) float64 {
	t.Helper()
	coords := append(append([]latency.Coord(nil), servers...), clients...)
	sidx := make([]int, len(servers))
	cidx := make([]int, len(clients))
	for k := range sidx {
		sidx[k] = k
	}
	for i := range cidx {
		cidx[i] = len(servers) + i
	}
	in, err := core.NewInstanceTrusted(latency.CoordsToMatrix(coords), sidx, cidx)
	if err != nil {
		t.Fatal(err)
	}
	return in.MaxInteractionPath(a)
}

// snapChecker runs CheckSnapshot on the plane's published snapshot
// after every op, each time against the snapshot it checked before.
type snapChecker struct {
	t    *testing.T
	p    *shard.Plane
	prev *shard.Snapshot
}

func (sc *snapChecker) check(format string, args ...any) {
	sc.t.Helper()
	cur := sc.p.Current()
	if err := sc.p.CheckSnapshot(sc.prev, cur); err != nil {
		sc.t.Fatalf("%s: %v", fmt.Sprintf(format, args...), err)
	}
	sc.prev = cur
}

func bitsEq(t *testing.T, label string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: %v (bits %x) != %v (bits %x)",
			label, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestPlaneSnapshotExactD drives random churn through a 4-shard plane
// and checks, at every publish, that the reconciled D is bit-identical
// to a single evaluator over the unpartitioned world and that the
// certified bound brackets it.
func TestPlaneSnapshotExactD(t *testing.T) {
	servers, clients := testCoords(t, 180, 10, 1)
	p, err := shard.New(shard.Options{
		Shards: 4, Servers: servers, Clients: clients, MaxCells: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var active []int
	inactive := make([]int, len(clients))
	for i := range inactive {
		inactive[i] = i
	}
	for op := 0; op < 600; op++ {
		switch k := rng.Intn(3); {
		case k == 0 && len(inactive) > 0:
			i := rng.Intn(len(inactive))
			c := inactive[i]
			if _, err := p.Join(context.Background(), c); err != nil {
				t.Fatalf("op %d: join(%d): %v", op, c, err)
			}
			inactive[i] = inactive[len(inactive)-1]
			inactive = inactive[:len(inactive)-1]
			active = append(active, c)
		case k == 1 && len(active) > 0:
			i := rng.Intn(len(active))
			c := active[i]
			if _, err := p.Leave(context.Background(), c); err != nil {
				t.Fatalf("op %d: leave(%d): %v", op, c, err)
			}
			active[i] = active[len(active)-1]
			active = active[:len(active)-1]
			inactive = append(inactive, c)
		case len(active) > 0:
			c := active[rng.Intn(len(active))]
			target := -1
			if rng.Intn(2) == 0 {
				target = rng.Intn(len(servers))
			}
			if _, err := p.Migrate(context.Background(), c, target); err != nil {
				t.Fatalf("op %d: migrate(%d,%d): %v", op, c, target, err)
			}
		default:
			continue
		}
		s := p.Current()
		if op%10 == 0 {
			bitsEq(t, "snapshot D vs global evaluator", s.D, globalD(t, servers, clients, s.Assignment()))
		}
		if s.CertifiedD < s.D {
			t.Fatalf("op %d: certified bound %v below exact D %v", op, s.CertifiedD, s.D)
		}
		if s.CertifiedD > s.D+4*s.MaxRho+1e-9 {
			t.Fatalf("op %d: certified bound %v exceeds D + 4·maxρ = %v", op, s.CertifiedD, s.D+4*s.MaxRho)
		}
	}
	s := p.Current()
	bitsEq(t, "final snapshot D", s.D, globalD(t, servers, clients, s.Assignment()))
	if s.Active != len(active) {
		t.Fatalf("snapshot active %d, want %d", s.Active, len(active))
	}
}

// TestPlaneEpochProtocol pins the conditional-read contract: At returns
// the snapshot only for the published epoch and a typed *ErrStaleEpoch
// carrying both epochs otherwise.
func TestPlaneEpochProtocol(t *testing.T) {
	servers, clients := testCoords(t, 40, 4, 3)
	p, err := shard.New(shard.Options{Shards: 2, Servers: servers, Clients: clients})
	if err != nil {
		t.Fatal(err)
	}
	first := p.Epoch()
	if first != 1 {
		t.Fatalf("initial epoch %d, want 1", first)
	}
	if _, err := p.At(first); err != nil {
		t.Fatalf("At(current): %v", err)
	}
	r, err := p.Join(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch != first+1 {
		t.Fatalf("epoch after join = %d, want %d", r.Epoch, first+1)
	}
	_, err = p.At(first)
	var stale *shard.ErrStaleEpoch
	if !errors.As(err, &stale) {
		t.Fatalf("At(retired) = %v, want *ErrStaleEpoch", err)
	}
	if stale.Requested != first || stale.Current != r.Epoch {
		t.Fatalf("stale epochs = %+v, want requested %d current %d", stale, first, r.Epoch)
	}
	// Rejected mutations must not burn epochs.
	if _, err := p.Join(context.Background(), 0); !errors.Is(err, core.ErrAlreadyAssigned) {
		t.Fatalf("double join: %v", err)
	}
	if p.Epoch() != r.Epoch {
		t.Fatalf("rejected mutation advanced the epoch to %d", p.Epoch())
	}
}

// TestPlaneRedundantRestartKeepsEpoch pins that restarting a live server,
// like killing a dead one, changes nothing: it publishes no epoch, so a
// reader pinned to the current epoch keeps it.
func TestPlaneRedundantRestartKeepsEpoch(t *testing.T) {
	servers, clients := testCoords(t, 40, 4, 3)
	p, err := shard.New(shard.Options{Shards: 2, Servers: servers, Clients: clients})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Join(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	pinned := p.Epoch()
	r, err := p.RestartServer(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch != pinned || p.Epoch() != pinned {
		t.Fatalf("redundant restart: result epoch %d, plane epoch %d, want %d", r.Epoch, p.Epoch(), pinned)
	}
	if _, err := p.At(pinned); err != nil {
		t.Fatalf("At(pinned) after a redundant restart: %v", err)
	}
	if _, err := p.ViewAt(pinned); err != nil {
		t.Fatalf("ViewAt(pinned) after a redundant restart: %v", err)
	}
}

// TestPlaneOpErrors covers the typed rejection surface.
func TestPlaneOpErrors(t *testing.T) {
	servers, clients := testCoords(t, 30, 3, 4)
	caps := make(core.Capacities, len(servers))
	for k := range caps {
		caps[k] = 30
	}
	p, err := shard.New(shard.Options{Shards: 2, Servers: servers, Clients: clients, Capacities: caps})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Join(context.Background(), len(clients)); !errors.Is(err, shard.ErrUnknownClient) {
		t.Fatalf("join of unknown client: %v", err)
	}
	if _, err := p.Leave(context.Background(), 5); !errors.Is(err, core.ErrNotAssigned) {
		t.Fatalf("leave of inactive client: %v", err)
	}
	if _, err := p.Migrate(context.Background(), 5, 0); !errors.Is(err, core.ErrNotAssigned) {
		t.Fatalf("migrate of inactive client: %v", err)
	}
	if _, err := p.Join(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.KillServer(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Migrate(context.Background(), 5, 0); !errors.Is(err, shard.ErrServerDown) {
		t.Fatalf("migrate to dead server: %v", err)
	}
	if _, err := p.RestartServer(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Migrate(context.Background(), 5, 0); err != nil {
		t.Fatalf("migrate to restarted server: %v", err)
	}
	epoch := p.Epoch()
	for _, k := range []int{len(servers), 99, -2, -5} {
		if _, err := p.Migrate(context.Background(), 5, k); !errors.Is(err, shard.ErrUnknownServer) {
			t.Fatalf("migrate to server %d: %v", k, err)
		}
		if _, _, err := p.KillServer(context.Background(), k); !errors.Is(err, shard.ErrUnknownServer) {
			t.Fatalf("kill of server %d: %v", k, err)
		}
		if _, err := p.RestartServer(context.Background(), k); !errors.Is(err, shard.ErrUnknownServer) {
			t.Fatalf("restart of server %d: %v", k, err)
		}
	}
	if _, _, err := p.KillServer(context.Background(), -1); !errors.Is(err, shard.ErrUnknownServer) {
		t.Fatalf("kill of server -1: %v", err)
	}
	if p.Epoch() != epoch {
		t.Fatalf("rejected server ids advanced the epoch from %d to %d", epoch, p.Epoch())
	}
	if _, err := p.Migrate(context.Background(), 5, -1); err != nil {
		t.Fatalf("migrate with target -1 (strategy choice): %v", err)
	}
}

// TestPlaneCapacityExhaustion starves one shard's capacity share and
// checks the typed rejection.
func TestPlaneCapacityExhaustion(t *testing.T) {
	servers, clients := testCoords(t, 20, 2, 5)
	caps := core.Capacities{1, 1} // 2 seats for 20 clients
	p, err := shard.New(shard.Options{Shards: 1, Servers: servers, Clients: clients, Capacities: caps})
	if err != nil {
		t.Fatal(err)
	}
	joined := 0
	var lastErr error
	for c := 0; c < len(clients); c++ {
		if _, err := p.Join(context.Background(), c); err != nil {
			lastErr = err
			break
		}
		joined++
	}
	if joined != 2 {
		t.Fatalf("joined %d clients on 2 seats", joined)
	}
	if !errors.Is(lastErr, shard.ErrNoCapacity) || !errors.Is(lastErr, dynamic.ErrCapacityExhausted) {
		t.Fatalf("exhaustion error = %v, want ErrNoCapacity wrapping ErrCapacityExhausted", lastErr)
	}
}

// TestPlaneKillRestart kills a server, checks the evacuation left a
// consistent exact snapshot, and restarts it.
func TestPlaneKillRestart(t *testing.T) {
	servers, clients := testCoords(t, 90, 6, 6)
	p, err := shard.New(shard.Options{Shards: 3, Servers: servers, Clients: clients})
	if err != nil {
		t.Fatal(err)
	}
	sc := snapChecker{t: t, p: p}
	for c := 0; c < len(clients); c++ {
		if _, err := p.Join(context.Background(), c); err != nil {
			t.Fatal(err)
		}
		sc.check("join %d", c)
	}
	victim := 2
	if p.Current().Loads[victim] == 0 {
		t.Skipf("server %d drew no load under this seed", victim)
	}
	_, evacuated, err := p.KillServer(context.Background(), victim)
	if err != nil {
		t.Fatal(err)
	}
	if evacuated == 0 {
		t.Fatal("kill evacuated nobody despite load")
	}
	sc.check("kill")
	s := p.Current()
	if s.Loads[victim] != 0 {
		t.Fatalf("dead server still has load %d", s.Loads[victim])
	}
	if s.Alive[victim] {
		t.Fatal("snapshot reports dead server alive")
	}
	if s.Active != len(clients) {
		t.Fatalf("evacuation lost clients: active %d of %d", s.Active, len(clients))
	}
	bitsEq(t, "post-kill snapshot D", s.D, globalD(t, servers, clients, s.Assignment()))
	// Double kill is an epoch-neutral no-op.
	r2, evac2, err := p.KillServer(context.Background(), victim)
	if err != nil || evac2 != 0 || r2.Epoch != s.Epoch {
		t.Fatalf("double kill: r=%+v evac=%d err=%v", r2, evac2, err)
	}
	if _, err := p.RestartServer(context.Background(), victim); err != nil {
		t.Fatal(err)
	}
	sc.check("restart")
	if !p.Current().Alive[victim] {
		t.Fatal("restart did not revive the server")
	}
}

// TestPlaneResolve runs the per-shard batch solver and checks it never
// worsens D and leaves an exact snapshot.
func TestPlaneResolve(t *testing.T) {
	servers, clients := testCoords(t, 120, 8, 7)
	p, err := shard.New(shard.Options{
		Shards: 4, Servers: servers, Clients: clients,
		// Nearest placement first, so the Greedy resolve has room to win.
		Strategy: func(*core.Instance) dynamic.Strategy { return &dynamic.NearestJoin{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := snapChecker{t: t, p: p}
	for c := 0; c < len(clients); c++ {
		if _, err := p.Join(context.Background(), c); err != nil {
			t.Fatal(err)
		}
		sc.check("join %d", c)
	}
	before := p.Current().D
	r, moved, err := p.Resolve(context.Background(), "Greedy", 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.D > before+1e-9 {
		t.Fatalf("resolve worsened D: %v -> %v (moved %d)", before, r.D, moved)
	}
	sc.check("resolve")
	s := p.Current()
	bitsEq(t, "post-resolve snapshot D", s.D, globalD(t, servers, clients, s.Assignment()))
}

// TestPlanePeriodicReoptimize runs a batch re-solving strategy on the
// plane: PeriodicReoptimize restricts each shard's table-only
// sub-instance to its active clients and re-solves it, and every
// snapshot it publishes passes the from-scratch check.
func TestPlanePeriodicReoptimize(t *testing.T) {
	servers, clients := testCoords(t, 120, 8, 7)
	p, err := shard.New(shard.Options{
		Shards: 4, Servers: servers, Clients: clients,
		Strategy: func(in *core.Instance) dynamic.Strategy { return dynamic.NewPeriodicReoptimize(in, 100) },
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := snapChecker{t: t, p: p}
	ctx := context.Background()
	for c := 0; c < len(clients); c++ {
		if _, err := p.Join(ctx, c); err != nil {
			t.Fatal(err)
		}
		sc.check("join %d", c)
	}
	moved := 0
	for id := 0; id < p.NumShards(); id++ {
		moves, err := p.RepairShard(ctx, id, 1000)
		if err != nil {
			t.Fatal(err)
		}
		moved += moves
		sc.check("repair shard %d", id)
	}
	if moved == 0 {
		t.Fatal("periodic re-solve moved no client; the test no longer exercises it")
	}
	s := p.Current()
	bitsEq(t, "post-repair snapshot D", s.D, globalD(t, servers, clients, s.Assignment()))
}

// TestPlaneLockFreeReads hammers Current/At from readers while a writer
// mutates — the race detector certifies the lock-free read claim.
func TestPlaneLockFreeReads(t *testing.T) {
	servers, clients := testCoords(t, 60, 4, 8)
	reg := obs.NewRegistry()
	shard.Preregister(reg)
	p, err := shard.New(shard.Options{Shards: 2, Servers: servers, Clients: clients, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := p.Current()
				if s.D < 0 {
					panic("negative D")
				}
				_, _ = p.At(s.Epoch)
			}
		}()
	}
	for c := 0; c < len(clients); c++ {
		if _, err := p.Join(context.Background(), c); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < len(clients); c += 2 {
		if _, err := p.Migrate(context.Background(), c, -1); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestPlaneRouter checks coordinate routing agrees with the static
// client partition.
func TestPlaneRouter(t *testing.T) {
	servers, clients := testCoords(t, 100, 6, 9)
	p, err := shard.New(shard.Options{Shards: 4, Servers: servers, Clients: clients, MaxCells: 20})
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for c := range clients {
		want, err := p.ShardOf(c)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := p.Route(clients[c]); got == want {
			agree++
		}
	}
	// Lloyd refinement can move a member across a cell boundary after
	// assignment, so routing is nearest-representative, not exact
	// membership; the overwhelming majority must still agree.
	if agree < len(clients)*9/10 {
		t.Fatalf("router agrees with partition on only %d/%d clients", agree, len(clients))
	}
}

// TestPlaneSegmentSharing pins O(dirty) publication under the race detector:
// while readers flatten pinned snapshots and recount their loads, one
// writer churns clients of all four shards, and every publish must
// build a fresh segment for the written shard only, carrying the other
// shards' segments over by pointer.
func TestPlaneSegmentSharing(t *testing.T) {
	servers, clients := testCoords(t, 400, 8, 12)
	p, err := shard.New(shard.Options{Shards: 4, Servers: servers, Clients: clients, MaxCells: 24})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := p.Current()
				loads := make([]int, len(s.Loads))
				for _, k := range s.Assignment() {
					if k >= 0 {
						loads[k]++
					}
				}
				for k := range loads {
					if loads[k] != s.Loads[k] {
						errs <- fmt.Errorf("epoch %d: server %d holds %d clients, Loads says %d", s.Epoch, k, loads[k], s.Loads[k])
						return
					}
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(5))
	active := make([]bool, len(clients))
	touched := make([]int, p.NumShards())
	for op := 0; op < 1500; op++ {
		c := rng.Intn(len(clients))
		sid, err := p.ShardOf(c)
		if err != nil {
			t.Fatal(err)
		}
		prev := p.Current()
		switch {
		case !active[c]:
			_, err = p.Join(context.Background(), c)
			active[c] = true
		case rng.Intn(3) == 0:
			_, err = p.Leave(context.Background(), c)
			active[c] = false
		default:
			target := (prev.ServerOf(c) + 1 + rng.Intn(len(servers)-1)) % len(servers)
			_, err = p.Migrate(context.Background(), c, target)
		}
		if err != nil {
			t.Fatalf("op %d on client %d: %v", op, c, err)
		}
		cur := p.Current()
		for s := range cur.Shards {
			if fresh := cur.Shards[s] != prev.Shards[s]; fresh != (s == sid) {
				t.Fatalf("op %d wrote shard %d: shard %d segment fresh=%v", op, sid, s, fresh)
			}
		}
		if cur.Shards[sid].Epoch != cur.Epoch {
			t.Fatalf("op %d: fresh segment stamped epoch %d, snapshot %d", op, cur.Shards[sid].Epoch, cur.Epoch)
		}
		touched[sid]++
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for s, n := range touched {
		if n == 0 {
			t.Errorf("shard %d was never written", s)
		}
	}
}

// TestCertifiedBoundCoversDWithPointCells pins the certified bound on
// the plane's default geometry: with fewer clients than MaxCells every
// client is its own cell (ρ = 0), so a cell bound and the matrix entry
// behind D are the same latency summed in different float orders.
// Unwidened, the bound lands an ulp below D on these seeds.
func TestCertifiedBoundCoversDWithPointCells(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, seed := range []int64{2, 7, 27} {
			servers, clients := testCoords(t, 40, 8, seed)
			p, err := shard.New(shard.Options{Shards: shards, Servers: servers, Clients: clients})
			if err != nil {
				t.Fatal(err)
			}
			if rho := p.Current().MaxRho; rho != 0 {
				t.Fatalf("MaxRho = %v, want point cells", rho)
			}
			for c := range clients {
				r, err := p.Join(context.Background(), c)
				if err != nil {
					t.Fatal(err)
				}
				if r.CertifiedD < r.D {
					t.Fatalf("shards=%d seed=%d join %d: CertifiedD %v < D %v (epoch %d)",
						shards, seed, c, r.CertifiedD, r.D, r.Epoch)
				}
			}
		}
	}
}
