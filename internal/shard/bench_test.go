package shard_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"diacap/internal/obs"
	"diacap/internal/shard"
)

// planeBenchSizes are the two universe sizes the O(dirty) publication
// claim is pinned at: a write must cost about the same at both, because
// only the owning shard's segment is republished.
var planeBenchSizes = []int{1600, 16000}

// benchPlane builds a 4-shard, 16-server plane over n synthetic clients
// and, when populate is set, joins every client.
func benchPlane(tb testing.TB, n int, populate bool) *shard.Plane {
	tb.Helper()
	servers, clients := testCoords(tb, n, 16, 11)
	p, err := shard.New(shard.Options{Shards: 4, Servers: servers, Clients: clients})
	if err != nil {
		tb.Fatal(err)
	}
	if populate {
		for c := 0; c < n; c++ {
			if _, err := p.Join(context.Background(), c); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return p
}

// migrateTape is a fixed random schedule of migrations replayed
// cyclically: client clients[i] moves offsets[i] ∈ [1, ns) servers
// along from its current one, so every op really moves a client even
// when the tape comes round again.
func migrateTape(n, ns int, seed int64) (clients, offsets []int) {
	const tapeLen = 4096
	rng := rand.New(rand.NewSource(seed))
	clients = make([]int, tapeLen)
	offsets = make([]int, tapeLen)
	for i := range clients {
		clients[i] = rng.Intn(n)
		offsets[i] = 1 + rng.Intn(ns-1)
	}
	return clients, offsets
}

// migrateOp applies tape entry i to the plane.
func migrateOp(p *shard.Plane, clients, offsets []int, i int) error {
	j := i % len(clients)
	c := clients[j]
	target := (p.Current().ServerOf(c) + offsets[j]) % p.NumServers()
	_, err := p.Migrate(context.Background(), c, target)
	return err
}

// BenchmarkPlaneNew measures building a 4-shard, 16-server plane: cell
// clustering, partition, the per-shard client→server tables and the
// first publish.
func BenchmarkPlaneNew(b *testing.B) {
	for _, n := range planeBenchSizes {
		b.Run(fmt.Sprintf("clients=%d", n), func(b *testing.B) {
			servers, clients := testCoords(b, n, 16, 11)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := shard.New(shard.Options{Shards: 4, Servers: servers, Clients: clients}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlaneMigrate measures one explicit-target migration (one
// evaluator move and one snapshot publish) on a fully populated plane.
func BenchmarkPlaneMigrate(b *testing.B) {
	for _, n := range planeBenchSizes {
		b.Run(fmt.Sprintf("clients=%d", n), func(b *testing.B) {
			p := benchPlane(b, n, true)
			clients, offsets := migrateTape(n, p.NumServers(), 7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := migrateOp(p, clients, offsets, i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlaneJoin measures one strategy-placed join (one snapshot
// publish) while the plane fills from empty to fully populated, the way
// a server populates at start-up; the untimed drain between fills
// leaves every client again.
func BenchmarkPlaneJoin(b *testing.B) {
	for _, n := range planeBenchSizes {
		b.Run(fmt.Sprintf("clients=%d", n), func(b *testing.B) {
			p := benchPlane(b, n, false)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := i % n
				if c == 0 && i > 0 {
					b.StopTimer()
					for l := 0; l < n; l++ {
						if _, err := p.Leave(ctx, l); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
				}
				if _, err := p.Join(ctx, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlaneMigrateObs splits the instrumentation cost of a
// migration at 1,600 clients: a bare plane, one with the flight
// recorder, one with a 1%-sampled tracer and the recorder (the shipped
// setting, as in diabench's obs/ pairs), and one where every op is
// sampled — the per-op cost of a sampled op, which 1% sampling
// amortizes a hundredfold.
func BenchmarkPlaneMigrateObs(b *testing.B) {
	cases := []struct {
		name     string
		rate     float64
		recorder bool
	}{
		{"bare", 0, false},
		{"recorder", 0, true},
		{"traced1pct", 0.01, true},
		{"sampled", 1, true},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			const n = 1600
			servers, cls := testCoords(b, n, 16, 11)
			opts := shard.Options{Shards: 4, Servers: servers, Clients: cls}
			if tc.rate > 0 {
				opts.Tracer = obs.NewTracer(obs.TracerOptions{SampleRate: tc.rate, Seed: 31})
			}
			if tc.recorder {
				opts.Flight = obs.NewRecorder(0)
			}
			p, err := shard.New(opts)
			if err != nil {
				b.Fatal(err)
			}
			for c := 0; c < n; c++ {
				if _, err := p.Join(context.Background(), c); err != nil {
					b.Fatal(err)
				}
			}
			clients, offsets := migrateTape(n, p.NumServers(), 7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(clients)
				c := clients[j]
				target := (p.Current().ServerOf(c) + offsets[j]) % p.NumServers()
				ctx, sp := opts.Tracer.Root(context.Background(), "bench.migrate")
				if _, err := p.Migrate(ctx, c, target); err != nil {
					b.Fatal(err)
				}
				sp.End()
			}
		})
	}
}
