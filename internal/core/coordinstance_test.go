package core_test

// Bit-identity of the table-only instance constructors: NewCoordInstance
// must reproduce NewInstanceTrusted over CoordsToMatrix(servers ∥
// clients) entry for entry, and Restrict must reproduce an instance
// over the copied submatrix, so D, the lower bound and every heuristic
// read the same bits as over a dense node matrix.

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"diacap/internal/assign"
	"diacap/internal/core"
	"diacap/internal/latency"
)

// identityCoords draws ns servers and nc clients with random heights
// (some zero) and plants coincident zero-height points — two servers on
// one spot, and clients on top of server 0 — so CoordsToMatrix's floor
// is hit in both tables.
func identityCoords(seed int64, ns, nc int) (servers, clients []latency.Coord) {
	rng := rand.New(rand.NewSource(seed))
	draw := func() latency.Coord {
		c := latency.Coord{X: rng.Float64() * 200, Y: rng.Float64() * 200, Z: rng.Float64() * 20}
		if rng.Intn(4) != 0 {
			c.H = rng.ExpFloat64() * 5
		}
		return c
	}
	servers = make([]latency.Coord, ns)
	for k := range servers {
		servers[k] = draw()
	}
	servers[0].H = 0
	servers[ns-1] = servers[0]
	clients = make([]latency.Coord, nc)
	for i := range clients {
		clients[i] = draw()
		if i%9 == 0 {
			clients[i] = servers[0]
		}
	}
	return servers, clients
}

// matrixInstance is the dense reference: NewInstanceTrusted over
// CoordsToMatrix(servers ∥ clients).
func matrixInstance(t *testing.T, servers, clients []latency.Coord) *core.Instance {
	t.Helper()
	nodes := append(append([]latency.Coord(nil), servers...), clients...)
	sidx := make([]int, len(servers))
	cidx := make([]int, len(clients))
	for k := range sidx {
		sidx[k] = k
	}
	for i := range cidx {
		cidx[i] = len(servers) + i
	}
	in, err := core.NewInstanceTrusted(latency.CoordsToMatrix(nodes), sidx, cidx)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// sameBits fails unless got and want agree on every table entry (by bit
// pattern), node id, D, lower bound and Greedy assignment.
func sameBits(t *testing.T, label string, got, want *core.Instance, a core.Assignment) {
	t.Helper()
	if got.NumServers() != want.NumServers() || got.NumClients() != want.NumClients() {
		t.Fatalf("%s: %d×%d, want %d×%d", label, got.NumClients(), got.NumServers(), want.NumClients(), want.NumServers())
	}
	bitsEq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := 0; i < want.NumClients(); i++ {
		for k := 0; k < want.NumServers(); k++ {
			if g, w := got.ClientServerDist(i, k), want.ClientServerDist(i, k); !bitsEq(g, w) {
				t.Fatalf("%s: cs[%d][%d] = %v, want %v", label, i, k, g, w)
			}
		}
	}
	for k := 0; k < want.NumServers(); k++ {
		for l := 0; l < want.NumServers(); l++ {
			if g, w := got.ServerServerDist(k, l), want.ServerServerDist(k, l); !bitsEq(g, w) {
				t.Fatalf("%s: ss[%d][%d] = %v, want %v", label, k, l, g, w)
			}
		}
	}
	if g, w := got.MaxPathReference(a), want.MaxPathReference(a); !bitsEq(g, w) {
		t.Fatalf("%s: MaxPathReference %v, want %v", label, g, w)
	}
	if g, w := got.LowerBound(), want.LowerBound(); !bitsEq(g, w) {
		t.Fatalf("%s: LowerBound %v, want %v", label, g, w)
	}
	ga, err := assign.Greedy{}.Assign(got, nil)
	if err != nil {
		t.Fatal(err)
	}
	wa, err := assign.Greedy{}.Assign(want, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ga, wa) {
		t.Fatalf("%s: Greedy %v, want %v", label, ga, wa)
	}
}

func TestCoordInstanceMatchesCoordsToMatrix(t *testing.T) {
	const ns, nc = 7, 60
	for seed := int64(1); seed <= 5; seed++ {
		servers, clients := identityCoords(seed, ns, nc)
		got, err := core.NewCoordInstance(servers, clients)
		if err != nil {
			t.Fatal(err)
		}
		want := matrixInstance(t, servers, clients)
		if got.Matrix() != nil {
			t.Fatal("coordinate instance has a matrix")
		}
		if got.ClientServerDist(0, 0) != latency.MinCoordLatency || got.ServerServerDist(0, ns-1) != latency.MinCoordLatency {
			t.Fatalf("floor not exercised: cs[0][0] = %v, ss[0][%d] = %v",
				got.ClientServerDist(0, 0), ns-1, got.ServerServerDist(0, ns-1))
		}
		for k := 0; k < ns; k++ {
			if got.ServerNode(k) != want.ServerNode(k) {
				t.Fatalf("server %d node %d, want %d", k, got.ServerNode(k), want.ServerNode(k))
			}
		}
		for i := 0; i < nc; i++ {
			if got.ClientNode(i) != want.ClientNode(i) {
				t.Fatalf("client %d node %d, want %d", i, got.ClientNode(i), want.ClientNode(i))
			}
		}
		a := diffAssignment(want, seed, 0.2)
		sameBits(t, "NewCoordInstance", got, want, a)
	}
}

func TestRestrictMatchesSubmatrix(t *testing.T) {
	const ns, nc = 6, 50
	for seed := int64(1); seed <= 5; seed++ {
		servers, clients := identityCoords(seed, ns, nc)
		coordIn, err := core.NewCoordInstance(servers, clients)
		if err != nil {
			t.Fatal(err)
		}
		matIn := matrixInstance(t, servers, clients)
		rng := rand.New(rand.NewSource(seed))
		chosen := rng.Perm(nc)[:nc/2]

		// The dense reference: copy the (|S|+k)² submatrix over [servers
		// ∥ chosen clients] and re-index it.
		nodes := make([]int, 0, ns+len(chosen))
		for k := 0; k < ns; k++ {
			nodes = append(nodes, k)
		}
		for _, c := range chosen {
			nodes = append(nodes, ns+c)
		}
		sidx := make([]int, ns)
		cidx := make([]int, len(chosen))
		for k := range sidx {
			sidx[k] = k
		}
		for i := range cidx {
			cidx[i] = ns + i
		}
		want, err := core.NewInstanceTrusted(matIn.Matrix().Submatrix(nodes), sidx, cidx)
		if err != nil {
			t.Fatal(err)
		}
		a := diffAssignment(want, seed, 0.2)

		got, err := coordIn.Restrict(chosen)
		if err != nil {
			t.Fatal(err)
		}
		if got.Matrix() != nil {
			t.Fatal("restricted coordinate instance has a matrix")
		}
		sameBits(t, "coordinate Restrict", got, want, a)

		// A matrix-backed restriction keeps the matrix and the node ids.
		got, err = matIn.Restrict(chosen)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "matrix Restrict", got, want, a)
		if m := got.Matrix(); m == nil || &m[0][0] != &matIn.Matrix()[0][0] {
			t.Fatal("matrix Restrict dropped the parent matrix")
		}
		for i, c := range chosen {
			if got.ClientNode(i) != matIn.ClientNode(c) {
				t.Fatalf("restricted client %d node %d, want %d", i, got.ClientNode(i), matIn.ClientNode(c))
			}
		}
	}
}

func TestRestrictRejectsBadClients(t *testing.T) {
	servers, clients := identityCoords(1, 3, 10)
	in, err := core.NewCoordInstance(servers, clients)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]int{nil, {0, 10}, {-1}, {2, 5, 2}} {
		if _, err := in.Restrict(bad); !errors.Is(err, core.ErrInvalidInstance) {
			t.Errorf("Restrict(%v): err = %v, want ErrInvalidInstance", bad, err)
		}
	}
	if _, err := core.NewCoordInstance(nil, clients); !errors.Is(err, core.ErrInvalidInstance) {
		t.Errorf("NewCoordInstance without servers: err = %v", err)
	}
	if _, err := core.NewCoordInstance(servers, nil); !errors.Is(err, core.ErrInvalidInstance) {
		t.Errorf("NewCoordInstance without clients: err = %v", err)
	}
}
