package main

// Seeded input generation. Everything a run sends — the plane's client
// universe, the read bodies, the write tape and the planning cycle — is
// derived here from the --seed argument before any timed phase starts,
// together with the reference answers the checkers compare against.
// The server process rebuilds only the universe from the same seed; it
// never sees a request body before it is sent.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"diacap/internal/latency"
	"diacap/internal/scale"
	"diacap/internal/service"
)

// Sizes fixes the shape of every workload. Full is the benchmark; the
// tests use a tiny one so they finish in seconds.
type Sizes struct {
	Servers   int // plane servers
	Clients   int // plane client universe
	Shards    int // plane shards
	Joined    int // clients joined at set-up
	QueryPool int // prospective-client coordinates, disjoint from the universe
	ReadPool  int // distinct read bodies, cycled through by the generator
	BatchMid  int // coordinates in the common batch
	BatchBig  int // coordinates in the rare large batch

	PlanClients    int // clients per /v1/assign-coords request
	PlanServers    int // placeServers per coords request
	PlanNodes      int // nodes of the /v1/assign matrix
	PlanMatrixSrvs int // servers of the /v1/assign matrix
}

// Full is the benchmark configuration.
var Full = Sizes{
	Servers: 16, Clients: 16000, Shards: 4, Joined: 8000,
	QueryPool: 8192, ReadPool: 2048, BatchMid: 64, BatchBig: 1024,
	PlanClients: 20000, PlanServers: 16, PlanNodes: 300, PlanMatrixSrvs: 16,
}

// Tiny is the test configuration.
var Tiny = Sizes{
	Servers: 4, Clients: 200, Shards: 2, Joined: 100,
	QueryPool: 64, ReadPool: 40, BatchMid: 8, BatchBig: 32,
	PlanClients: 300, PlanServers: 4, PlanNodes: 40, PlanMatrixSrvs: 4,
}

// Read request kinds, in mix order.
const (
	kindOne = iota
	kindMid
	kindBig
	numReadKinds
)

var readKindNames = [numReadKinds]string{"one", "b64", "b1024"}

// readShare is each read kind's share of the read pool: 70% unary, 27%
// mid batches, 3% large batches. The pool holds exactly these shares,
// so the mix does not vary with the seed.
var readShare = [numReadKinds]float64{0.70, 0.27, 0.03}

// Universe is the plane's world: server and client coordinates, the
// clients joined at set-up, and the prospective-client pool that read
// requests draw from.
type Universe struct {
	Servers []latency.Coord
	Clients []latency.Coord
	Queries []latency.Coord
	// Joined lists the clients joined at set-up, in join order.
	Joined []int
}

// seed streams: each input family draws from its own derived seed so
// adding draws to one family never shifts another.
const (
	streamUniverse = iota + 1
	streamJoin
	streamReads
	streamTape
	streamPlanCoords
	streamPlanMatrix
	streamPlanServers
)

func subSeed(seed int64, stream int) int64 {
	// splitmix64 over (seed, stream) keeps the streams independent.
	z := uint64(seed) + uint64(stream)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// NewUniverse derives the plane's world from seed.
func NewUniverse(sz Sizes, seed int64) (*Universe, error) {
	n := sz.Servers + sz.Clients + sz.QueryPool
	cs, err := latency.GenerateCoords(latency.DefaultConfig(n), subSeed(seed, streamUniverse))
	if err != nil {
		return nil, fmt.Errorf("generating universe: %w", err)
	}
	// A seeded shuffle decides roles, so servers, clients and queries
	// all span the whole synthetic geography.
	rng := rand.New(rand.NewSource(subSeed(seed, streamJoin)))
	rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	u := &Universe{
		Servers: cs[:sz.Servers],
		Clients: cs[sz.Servers : sz.Servers+sz.Clients],
		Queries: cs[sz.Servers+sz.Clients:],
	}
	u.Joined = rng.Perm(sz.Clients)[:sz.Joined]
	return u, nil
}

// ReadBody is one pre-encoded read request with its reference answer.
type ReadBody struct {
	Kind   int
	Path   string
	Body   []byte
	Coords []latency.Coord
	// Want[i] and WantLat[i] are the brute-force nearest server of
	// Coords[i] and its latency.
	Want    []int
	WantLat []float64
}

// nearest is the checkers' brute-force reference: the lowest-index
// server of minimal coordinate-predicted latency.
func nearest(q latency.Coord, servers []latency.Coord) (int, float64) {
	best, bv := -1, math.Inf(1)
	for k, s := range servers {
		if d := q.LatencyTo(s); d < bv {
			best, bv = k, d
		}
	}
	return best, bv
}

func appendCoord(dst []byte, c latency.Coord) []byte {
	dst = append(dst, '[')
	for i, v := range [4]float64{c.X, c.Y, c.Z, c.H} {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	return append(dst, ']')
}

// NewReadPool builds sz.ReadPool read bodies in the read mix, in seeded
// order, with coordinates drawn from the query pool.
func NewReadPool(sz Sizes, u *Universe, seed int64) []ReadBody {
	rng := rand.New(rand.NewSource(subSeed(seed, streamReads)))
	kinds := make([]int, 0, sz.ReadPool)
	for kind := numReadKinds - 1; kind > 0; kind-- {
		for n := int(math.Round(readShare[kind] * float64(sz.ReadPool))); n > 0; n-- {
			kinds = append(kinds, kind)
		}
	}
	for len(kinds) < sz.ReadPool {
		kinds = append(kinds, kindOne)
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	pool := make([]ReadBody, sz.ReadPool)
	for i, kind := range kinds {
		n := [numReadKinds]int{1, sz.BatchMid, sz.BatchBig}[kind]
		rb := ReadBody{Kind: kind, Coords: make([]latency.Coord, n), Want: make([]int, n), WantLat: make([]float64, n)}
		for j := range rb.Coords {
			q := u.Queries[rng.Intn(len(u.Queries))]
			rb.Coords[j] = q
			rb.Want[j], rb.WantLat[j] = nearest(q, u.Servers)
		}
		if kind == kindOne {
			rb.Path = "/v1/assign-one"
			rb.Body = appendCoord([]byte(`{"coord":`), rb.Coords[0])
		} else {
			rb.Path = "/v1/assign-batch"
			rb.Body = []byte(`{"coords":[`)
			for j, q := range rb.Coords {
				if j > 0 {
					rb.Body = append(rb.Body, ',')
				}
				rb.Body = appendCoord(rb.Body, q)
			}
			rb.Body = append(rb.Body, ']')
		}
		rb.Body = append(rb.Body, '}')
		pool[i] = rb
	}
	return pool
}

// Write op kinds, in tape-mix order.
const (
	opJoin = iota
	opLeave
	opMigrateAuto
	opMigrateTo
	numOps
)

var opNames = [numOps]string{"join", "leave", "migrate_auto", "migrate_to"}

// opBlock is the tape mix as a block of ten ops: 30% join, 30% leave,
// 30% strategy migrate, 10% migrate to an explicit server. The tape is
// a sequence of such blocks, each in seeded order, so every stretch of
// it holds the mix exactly.
var opBlock = [10]int{opJoin, opJoin, opJoin, opLeave, opLeave, opLeave,
	opMigrateAuto, opMigrateAuto, opMigrateAuto, opMigrateTo}

// WriteOp is one tape entry.
type WriteOp struct {
	Kind   int
	Client int
	Target int // opMigrateTo only
	Body   []byte
}

// activeSet is a set of client ids with O(1) random pick and removal.
type activeSet struct {
	ids []int
	pos []int // pos[c] is c's index in ids, or -1
}

func newActiveSet(universe int, members []int) *activeSet {
	s := &activeSet{pos: make([]int, universe)}
	for i := range s.pos {
		s.pos[i] = -1
	}
	for _, c := range members {
		s.add(c)
	}
	return s
}

func (s *activeSet) has(c int) bool { return s.pos[c] >= 0 }

func (s *activeSet) add(c int) {
	s.pos[c] = len(s.ids)
	s.ids = append(s.ids, c)
}

func (s *activeSet) remove(c int) {
	i := s.pos[c]
	last := s.ids[len(s.ids)-1]
	s.ids[i], s.pos[last] = last, i
	s.ids = s.ids[:len(s.ids)-1]
	s.pos[c] = -1
}

// NewTape draws n write ops that are valid by construction: joins pick
// an inactive client, leaves and migrates an active one.
func NewTape(sz Sizes, u *Universe, seed int64, n int) []WriteOp {
	rng := rand.New(rand.NewSource(subSeed(seed, streamTape)))
	active := newActiveSet(sz.Clients, u.Joined)
	inactive := make([]int, 0, sz.Clients)
	for c := 0; c < sz.Clients; c++ {
		if !active.has(c) {
			inactive = append(inactive, c)
		}
	}
	idle := newActiveSet(sz.Clients, inactive)
	tape := make([]WriteOp, n)
	var block [len(opBlock)]int
	for i := range tape {
		if i%len(block) == 0 {
			block = opBlock
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		kind := block[i%len(block)]
		// Keep the tape valid when a side runs dry (tiny universes).
		if kind == opJoin && len(idle.ids) == 0 {
			kind = opLeave
		}
		if kind != opJoin && len(active.ids) == 0 {
			kind = opJoin
		}
		op := WriteOp{Kind: kind, Target: -1}
		switch kind {
		case opJoin:
			op.Client = idle.ids[rng.Intn(len(idle.ids))]
			idle.remove(op.Client)
			active.add(op.Client)
			op.Body = fmt.Appendf(nil, `{"op":"join","client":%d}`, op.Client)
		case opLeave:
			op.Client = active.ids[rng.Intn(len(active.ids))]
			active.remove(op.Client)
			idle.add(op.Client)
			op.Body = fmt.Appendf(nil, `{"op":"leave","client":%d}`, op.Client)
		case opMigrateAuto:
			op.Client = active.ids[rng.Intn(len(active.ids))]
			op.Body = fmt.Appendf(nil, `{"op":"migrate","client":%d}`, op.Client)
		case opMigrateTo:
			op.Client = active.ids[rng.Intn(len(active.ids))]
			op.Target = rng.Intn(sz.Servers)
			op.Body = fmt.Appendf(nil, `{"op":"migrate","client":%d,"server":%d}`, op.Client, op.Target)
		}
		tape[i] = op
	}
	return tape
}

// ActiveAfter replays the first n ops of tape over the set-up joins and
// returns the expected active flag of every client.
func ActiveAfter(sz Sizes, u *Universe, tape []WriteOp, n int) []bool {
	active := make([]bool, sz.Clients)
	for _, c := range u.Joined {
		active[c] = true
	}
	for _, op := range tape[:n] {
		switch op.Kind {
		case opJoin:
			active[op.Client] = true
		case opLeave:
			active[op.Client] = false
		}
	}
	return active
}

// Plan request kinds, in cycle order.
const (
	planCoords = iota
	planCoordsCap
	planGreedy
	planDGreedy
	planLocalSearch
	planAnneal
	numPlanKinds
)

var planKindNames = [numPlanKinds]string{"coords", "coords_cap", "greedy", "dgreedy", "local_search", "anneal"}

// planAlgorithms maps the matrix kinds to their algorithm names.
var planAlgorithms = map[int]string{
	planGreedy:      "Greedy",
	planDGreedy:     "Distributed-Greedy",
	planLocalSearch: "Local-Search",
	planAnneal:      "Anneal",
}

// PlanCycle is the fixed cycle of planning requests and what the
// checkers need to verify their answers.
type PlanCycle struct {
	Paths  [numPlanKinds]string
	Bodies [numPlanKinds][]byte
	Seed   int64
	// Coords requests: the clients, the servers scale.PlaceServers
	// derives from them, and the capacities of the capacitated request.
	Clients    []latency.Coord
	PlacedSrvs []latency.Coord
	Capacities []int
	// Matrix requests: every node is a client.
	Matrix     latency.Matrix
	MatrixSrvs []int
}

// NewPlanCycle builds the planning cycle for seed.
func NewPlanCycle(sz Sizes, seed int64) (*PlanCycle, error) {
	pc := &PlanCycle{Seed: seed}
	clients, err := latency.GenerateCoords(latency.DefaultConfig(sz.PlanClients), subSeed(seed, streamPlanCoords))
	if err != nil {
		return nil, fmt.Errorf("generating plan clients: %w", err)
	}
	pc.Clients = clients
	if pc.PlacedSrvs, err = scale.PlaceServers(clients, sz.PlanServers, seed); err != nil {
		return nil, fmt.Errorf("placing plan servers: %w", err)
	}
	share := (sz.PlanClients + sz.PlanServers - 1) / sz.PlanServers
	pc.Capacities = make([]int, sz.PlanServers)
	for k := range pc.Capacities {
		pc.Capacities[k] = int(math.Ceil(1.25 * float64(share)))
	}
	pc.Matrix = latency.ScaledLike(sz.PlanNodes, subSeed(seed, streamPlanMatrix))
	rng := rand.New(rand.NewSource(subSeed(seed, streamPlanServers)))
	pc.MatrixSrvs = rng.Perm(sz.PlanNodes)[:sz.PlanMatrixSrvs]
	for kind := 0; kind < numPlanKinds; kind++ {
		var v any
		switch kind {
		case planCoords, planCoordsCap:
			pc.Paths[kind] = "/v1/assign-coords"
			req := service.AssignCoordsRequest{Clients: clients, PlaceServers: sz.PlanServers, Seed: &pc.Seed}
			if kind == planCoordsCap {
				req.Capacities = pc.Capacities
			}
			v = req
		default:
			pc.Paths[kind] = "/v1/assign"
			v = service.AssignRequest{
				Matrix:            pc.Matrix,
				Servers:           pc.MatrixSrvs,
				Algorithm:         planAlgorithms[kind],
				IncludeLowerBound: true,
				IncludeOffsets:    true,
				Seed:              &pc.Seed,
			}
		}
		if pc.Bodies[kind], err = json.Marshal(v); err != nil {
			return nil, fmt.Errorf("encoding plan body: %w", err)
		}
	}
	return pc, nil
}

// Inputs is everything one run sends, generated before timing starts.
type Inputs struct {
	Sizes    Sizes
	Seed     int64
	Universe *Universe
	Reads    []ReadBody
	// ReadOrder is the order in which the generator sends Reads.
	ReadOrder []int
	Tape      []WriteOp
	Plan      *PlanCycle
}

// NewInputs generates every input family for seed; tapeLen sizes the
// write tape and orderLen the read schedule.
func NewInputs(sz Sizes, seed int64, tapeLen, orderLen int) (*Inputs, error) {
	u, err := NewUniverse(sz, seed)
	if err != nil {
		return nil, err
	}
	in := &Inputs{Sizes: sz, Seed: seed, Universe: u}
	in.Reads = NewReadPool(sz, u, seed)
	// The schedule is a run of seeded permutations of the pool, so every
	// stretch of it holds the read mix.
	rng := rand.New(rand.NewSource(subSeed(seed, streamReads) + 1))
	in.ReadOrder = make([]int, 0, orderLen)
	for len(in.ReadOrder) < orderLen {
		in.ReadOrder = append(in.ReadOrder, rng.Perm(len(in.Reads))...)
	}
	in.ReadOrder = in.ReadOrder[:orderLen]
	in.Tape = NewTape(sz, u, seed, tapeLen)
	if in.Plan, err = NewPlanCycle(sz, seed); err != nil {
		return nil, err
	}
	return in, nil
}

// Hash is a SHA-256 over every generated byte the run sends, plus the
// universe the server rebuilds: two runs with the same hash sent the
// same inputs.
func (in *Inputs) Hash() string {
	h := sha256.New()
	var buf []byte
	for _, set := range [][]latency.Coord{in.Universe.Servers, in.Universe.Clients, in.Universe.Queries} {
		for _, c := range set {
			buf = appendCoord(buf[:0], c)
			h.Write(buf)
		}
	}
	for _, c := range in.Universe.Joined {
		h.Write(strconv.AppendInt(buf[:0], int64(c), 10))
	}
	for _, rb := range in.Reads {
		h.Write([]byte(rb.Path))
		h.Write(rb.Body)
	}
	for _, i := range in.ReadOrder {
		h.Write(strconv.AppendInt(buf[:0], int64(i), 10))
	}
	for _, op := range in.Tape {
		h.Write(op.Body)
	}
	for _, b := range in.Plan.Bodies {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
