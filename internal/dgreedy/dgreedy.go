// Package dgreedy implements Distributed-Greedy Assignment (Section IV-D)
// as an actual message-passing protocol over the simulated network, as the
// paper describes it: servers measure their inter-server and
// client-to-server latencies, broadcast their longest client distance
// l(s), independently compute the maximum interaction-path length D, and
// serially attempt to reassign clients involved in longest paths. A token
// circulating among the servers provides the concurrency control the
// paper requires so that no two servers modify the assignment
// simultaneously.
//
// The protocol's per-move decision rule is identical to the centralized
// logic in assign.DistributedGreedy; package tests cross-check the two:
// the protocol's D trace is monotone non-increasing, it terminates at an
// assignment where no client on a longest path has an improving move, and
// on instances with a unique basin both implementations reach the same D.
package dgreedy

import (
	"cmp"
	"errors"
	"fmt"
	"math"

	"diacap/internal/core"
	"diacap/internal/sim"
)

const eps = 1e-9

// Messages of the protocol.
type (
	// lUpdate broadcasts a server's longest distance to its clients
	// (-1 when it has none).
	lUpdate struct {
		from int
		l    float64
	}
	// probe asks every server to evaluate hosting the given client;
	// exclL is the holder's longest client distance excluding that client.
	probe struct {
		from   int
		client int
		exclL  float64
		seq    int
	}
	// probeReply returns the evaluated maximum interaction-path length
	// L(s') (math.Inf(1) when the server cannot take the client).
	probeReply struct {
		from int
		seq  int
		l    float64
	}
	// reassign transfers a client to the destination server.
	reassign struct {
		from   int
		client int
		seq    int
	}
	// reassignAck confirms adoption so the old owner can finish its step.
	reassignAck struct {
		from int
		seq  int
	}
	// token serializes modification attempts. noImprove counts
	// consecutive servers whose whole turn produced no reduction of D.
	token struct {
		noImprove int
	}
)

// Options tunes the protocol run.
type Options struct {
	// Drop, if non-nil, is consulted for every message; returning true
	// silently drops it (failure injection). Probe, reply, reassign and
	// ack messages are retransmitted on timeout, so the protocol
	// converges under partial loss; lost token or l-broadcast messages
	// are not recovered and surface as a non-termination error.
	Drop func(msg sim.Message) bool
	// MaxRetries bounds per-message retransmissions (0 = default 5).
	MaxRetries int
}

// Result reports the protocol outcome.
type Result struct {
	// Assignment is the final client assignment.
	Assignment core.Assignment
	// InitialD and FinalD are the maximum interaction-path lengths before
	// and after optimization.
	InitialD, FinalD float64
	// Trace holds D after each assignment modification.
	Trace []float64
	// Modifications is the number of client reassignments performed.
	Modifications int
	// Messages is the total number of protocol messages delivered.
	Messages int
	// ConvergenceTime is the virtual time (ms) until termination.
	ConvergenceTime float64
}

// server is one protocol participant.
type server struct {
	p   *protocol
	idx int

	clients map[int]bool // clients currently assigned here
	l       []float64    // believed longest client distance per server
	seq     int          // probe sequence numbers (locally unique)

	bootstrapped int // lUpdates received (incl. own)

	// In-flight turn state.
	hasToken     bool
	tok          token
	pending      []int // critical clients still to examine this turn
	improved     bool  // D dropped during this turn
	awaitSeq     int
	awaitReplies int
	replied      []bool // which servers answered the current probe
	bestL        float64
	bestFrom     int
	curClient    int
	awaitAck     bool
	retries      int // retransmissions used for the current probe/reassign
}

// protocol wires the servers over a sim network.
type protocol struct {
	in         *core.Instance
	caps       core.Capacities
	eng        *sim.Engine
	net        *sim.Network
	servers    []*server
	res        *Result
	done       bool
	failure    error
	maxRetries int
	// settle is one maximum inter-server delay: the protocol pauses this
	// long after every l-table change before the next decision, so every
	// decision runs on a quiesced view (real deployments would use the
	// same bound for their concurrency control).
	settle float64
}

// Run executes the protocol from the given initial assignment (which must
// be complete and respect caps). It returns the converged result.
func Run(in *core.Instance, caps core.Capacities, initial core.Assignment) (*Result, error) {
	return RunWithOptions(in, caps, initial, Options{})
}

// RunWithOptions is Run with failure-injection and retry tuning.
func RunWithOptions(in *core.Instance, caps core.Capacities, initial core.Assignment, opts Options) (*Result, error) {
	if in == nil {
		return nil, errors.New("dgreedy: nil instance")
	}
	if err := in.Validate(initial); err != nil {
		return nil, fmt.Errorf("dgreedy: %w", err)
	}
	if err := in.CheckCapacities(initial, caps); err != nil {
		return nil, fmt.Errorf("dgreedy: %w", err)
	}

	ns := in.NumServers()
	p := &protocol{in: in, caps: caps, eng: &sim.Engine{}, res: &Result{}, maxRetries: opts.MaxRetries}
	if p.maxRetries <= 0 {
		p.maxRetries = 5
	}
	net, err := sim.NewNetwork(p.eng, func(u, v int) float64 {
		return in.ServerServerDist(u, v)
	})
	if err != nil {
		return nil, err
	}
	net.DropFunc = opts.Drop
	p.net = net

	p.servers = make([]*server, ns)
	for k := 0; k < ns; k++ {
		sv := &server{p: p, idx: k, clients: make(map[int]bool), l: make([]float64, ns)}
		for i := range sv.l {
			sv.l[i] = -1
		}
		p.servers[k] = sv
		net.Register(k, sv)
	}
	for c, s := range initial {
		p.servers[s].clients[c] = true
	}
	p.res.Assignment = initial.Clone()
	p.res.InitialD = in.MaxInteractionPath(initial)
	p.res.FinalD = p.res.InitialD

	// Bootstrap: every server measures its longest client distance and
	// broadcasts it at time 0. Server 0 starts the token only after every
	// bootstrap broadcast has certainly arrived everywhere (one maximum
	// inter-server delay), so all servers decide on complete l tables.
	targets := make([]int, ns)
	for i := range targets {
		targets[i] = i
	}
	var maxPair float64
	for u := 0; u < ns; u++ {
		for t := u + 1; t < ns; t++ {
			if d := in.ServerServerDist(u, t); d > maxPair {
				maxPair = d
			}
		}
	}
	p.settle = maxPair + eps
	for k := 0; k < ns; k++ {
		sv := p.servers[k]
		myL := sv.longestClientDist(-1)
		sv.l[k] = myL
		sv.bootstrapped++
		if err := net.Broadcast(k, targets, lUpdate{from: k, l: myL}); err != nil {
			return nil, err
		}
	}
	if err := p.eng.Schedule(p.settle, func() {
		p.servers[0].startTurn(token{noImprove: 0})
	}); err != nil {
		return nil, err
	}

	p.eng.Run()
	if p.failure != nil {
		return nil, fmt.Errorf("dgreedy: %w", p.failure)
	}
	if !p.done {
		return nil, errors.New("dgreedy: protocol did not terminate")
	}
	p.res.Messages = net.Sent()
	p.res.ConvergenceTime = p.eng.Now()
	p.res.FinalD = in.MaxInteractionPath(p.res.Assignment)
	return p.res, nil
}

// longestClientDist returns the longest distance from this server to its
// clients, excluding the given client (-1 excludes nobody); -1 when none.
func (sv *server) longestClientDist(excl int) float64 {
	best := -1.0
	for c := range sv.clients {
		if c == excl {
			continue
		}
		if d := sv.p.in.ClientServerDist(c, sv.idx); d > best {
			best = d
		}
	}
	return best
}

// computeD derives the maximum interaction-path length from the believed
// l table: max over server pairs of l(s) + d(s,t) + l(t).
func (sv *server) computeD() float64 {
	in := sv.p.in
	ns := in.NumServers()
	var d float64
	for s := 0; s < ns; s++ {
		if sv.l[s] < 0 {
			continue
		}
		for t := s; t < ns; t++ {
			if sv.l[t] < 0 {
				continue
			}
			if v := sv.l[s] + in.ServerServerDist(s, t) + sv.l[t]; v > d {
				d = v
			}
		}
	}
	return d
}

// criticalClients returns this server's clients involved in a longest
// interaction path under the believed l table.
func (sv *server) criticalClients(d float64) []int {
	in := sv.p.in
	ns := in.NumServers()
	far := math.Inf(-1)
	for t := 0; t < ns; t++ {
		if sv.l[t] < 0 {
			continue
		}
		if v := in.ServerServerDist(sv.idx, t) + sv.l[t]; v > far {
			far = v
		}
	}
	var out []int
	for c := range sv.clients {
		if in.ClientServerDist(c, sv.idx)+far >= d-eps {
			out = append(out, c)
		}
	}
	// Deterministic order regardless of map iteration.
	sortInts(out)
	return out
}

// HandleMessage implements sim.Handler.
func (sv *server) HandleMessage(net *sim.Network, msg sim.Message) {
	if sv.p.done {
		return
	}
	switch m := msg.Payload.(type) {
	case lUpdate:
		sv.handleLUpdate(m)
	case probe:
		sv.handleProbe(m)
	case probeReply:
		sv.handleProbeReply(m)
	case reassign:
		sv.handleReassign(m)
	case reassignAck:
		sv.handleReassignAck(m)
	case token:
		sv.handleToken(m)
	default:
		panic(fmt.Sprintf("dgreedy: server %d got %T", sv.idx, msg.Payload))
	}
}

func (sv *server) handleLUpdate(m lUpdate) {
	sv.l[m.from] = m.l
	sv.bootstrapped++
}

func (sv *server) handleToken(m token) {
	sv.startTurn(m)
}

// startTurn begins this server's modification turn: snapshot the critical
// clients assigned here and examine them one by one.
func (sv *server) startTurn(tok token) {
	sv.hasToken = true
	sv.tok = tok
	sv.improved = false
	d := sv.computeD()
	sv.pending = sv.criticalClients(d)
	sv.nextCandidate()
}

// nextCandidate probes for the next pending critical client, or ends the
// turn.
func (sv *server) nextCandidate() {
	for len(sv.pending) > 0 {
		c := sv.pending[0]
		sv.pending = sv.pending[1:]
		if !sv.clients[c] {
			continue // moved away meanwhile (cannot happen serially; defensive)
		}
		d := sv.computeD()
		// Re-check criticality against current knowledge.
		in := sv.p.in
		far := math.Inf(-1)
		for t := 0; t < in.NumServers(); t++ {
			if sv.l[t] < 0 {
				continue
			}
			if v := in.ServerServerDist(sv.idx, t) + sv.l[t]; v > far {
				far = v
			}
		}
		if in.ClientServerDist(c, sv.idx)+far < d-eps {
			continue
		}
		// Broadcast a probe for c.
		sv.seq++
		sv.curClient = c
		sv.awaitSeq = sv.seq
		sv.awaitReplies = in.NumServers() - 1
		sv.replied = make([]bool, in.NumServers())
		sv.bestL = math.Inf(1)
		sv.bestFrom = -1
		sv.retries = 0
		if sv.awaitReplies == 0 {
			// Single-server deployment: nothing to probe.
			continue
		}
		sv.sendProbe()
		return // wait for replies
	}
	sv.endTurn()
}

// sendProbe (re)transmits the current probe to every server that has not
// replied yet, and arms the retransmission timeout. One probe and one
// reply each take at most one settle delay, so a missing reply after
// 2·settle means loss.
func (sv *server) sendProbe() {
	in := sv.p.in
	pr := probe{from: sv.idx, client: sv.curClient, exclL: sv.longestClientDist(sv.curClient), seq: sv.awaitSeq}
	for t := 0; t < in.NumServers(); t++ {
		if t == sv.idx || sv.replied[t] {
			continue
		}
		if err := sv.p.net.Send(sv.idx, t, pr); err != nil {
			panic(fmt.Sprintf("dgreedy: probe: %v", err))
		}
	}
	seq := sv.awaitSeq
	if err := sv.p.eng.Schedule(2*sv.p.settle+eps, func() { sv.probeTimeout(seq) }); err != nil {
		panic(fmt.Sprintf("dgreedy: probe timeout: %v", err))
	}
}

// probeTimeout fires when a probe round may have lost messages.
func (sv *server) probeTimeout(seq int) {
	if sv.p.done || !sv.hasToken || sv.awaitSeq != seq || sv.awaitReplies == 0 || sv.awaitAck {
		return // probe completed (or superseded) meanwhile
	}
	if sv.retries >= sv.p.maxRetries {
		// Give up on the unresponsive servers: treat them as unable to
		// host the client (their L is +Inf) and decide with what we have.
		sv.awaitReplies = 0
		sv.decide()
		return
	}
	sv.retries++
	sv.sendProbe()
}

func (sv *server) handleProbe(m probe) {
	in := sv.p.in
	// Capacity check: can this server adopt the client?
	if sv.p.caps != nil && len(sv.clients) >= sv.p.caps[sv.idx] {
		sv.reply(m, math.Inf(1))
		return
	}
	// Measure d(c, s') — in deployment a ping; here a matrix lookup.
	dcs := in.ClientServerDist(m.client, sv.idx)
	// L(s') = max over s'' of d(c,s') + d(s',s'') + l(s''), with the
	// prober's l taken as its value excluding the client, plus the
	// client's own round trip.
	l := 2 * dcs
	for t := 0; t < in.NumServers(); t++ {
		lt := sv.l[t]
		if t == m.from {
			lt = m.exclL
		}
		if t == sv.idx {
			// Local value is authoritative for ourselves.
			lt = sv.longestClientDist(-1)
		}
		if lt < 0 {
			continue
		}
		if v := dcs + in.ServerServerDist(sv.idx, t) + lt; v > l {
			l = v
		}
	}
	sv.reply(m, l)
}

func (sv *server) reply(m probe, l float64) {
	if err := sv.p.net.Send(sv.idx, m.from, probeReply{from: sv.idx, seq: m.seq, l: l}); err != nil {
		panic(fmt.Sprintf("dgreedy: reply: %v", err))
	}
}

func (sv *server) handleProbeReply(m probeReply) {
	if !sv.hasToken || m.seq != sv.awaitSeq || sv.awaitReplies == 0 {
		return // stale reply from an abandoned probe
	}
	if sv.replied[m.from] {
		return // duplicate caused by a retransmission race
	}
	sv.replied[m.from] = true
	// Exact three-way compare: the tie-break on server id only applies
	// at bit-identical l values, keeping the protocol deterministic.
	if c := cmp.Compare(m.l, sv.bestL); c < 0 || (c == 0 && (sv.bestFrom == -1 || m.from < sv.bestFrom)) {
		sv.bestL = m.l
		sv.bestFrom = m.from
	}
	sv.awaitReplies--
	if sv.awaitReplies > 0 {
		return
	}
	sv.decide()
}

// decide concludes the current probe round: reassign the client if some
// server improves its paths, else move on.
func (sv *server) decide() {
	d := sv.computeD()
	if sv.bestFrom >= 0 && sv.bestL < d-eps {
		// Move curClient to bestFrom.
		c := sv.curClient
		delete(sv.clients, c)
		sv.l[sv.idx] = sv.longestClientDist(-1)
		sv.awaitAck = true
		sv.retries = 0
		sv.sendReassign()
		return // continue on ack
	}
	sv.nextCandidate()
}

// sendReassign (re)transmits the current reassignment and arms its
// retransmission timeout. Adoption is idempotent at the receiver, so a
// duplicate caused by a lost ack is harmless.
func (sv *server) sendReassign() {
	if err := sv.p.net.Send(sv.idx, sv.bestFrom, reassign{from: sv.idx, client: sv.curClient, seq: sv.awaitSeq}); err != nil {
		panic(fmt.Sprintf("dgreedy: reassign: %v", err))
	}
	seq := sv.awaitSeq
	if err := sv.p.eng.Schedule(2*sv.p.settle+eps, func() { sv.reassignTimeout(seq) }); err != nil {
		panic(fmt.Sprintf("dgreedy: reassign timeout: %v", err))
	}
}

func (sv *server) reassignTimeout(seq int) {
	if sv.p.done || !sv.awaitAck || sv.awaitSeq != seq {
		return
	}
	if sv.retries >= sv.p.maxRetries {
		// The handoff is in an unknown state; the assignment can no
		// longer be trusted to be consistent. Surface a hard failure.
		sv.p.failure = fmt.Errorf("reassignment of client %d to server %d unacknowledged after %d retries",
			sv.curClient, sv.bestFrom, sv.retries)
		sv.p.eng.Stop()
		return
	}
	sv.retries++
	sv.sendReassign()
}

func (sv *server) handleReassign(m reassign) {
	in := sv.p.in
	if sv.clients[m.client] {
		// Duplicate of an adoption we already performed (the ack was
		// lost): just re-ack.
		if err := sv.p.net.Send(sv.idx, m.from, reassignAck{from: sv.idx, seq: m.seq}); err != nil {
			panic(fmt.Sprintf("dgreedy: ack: %v", err))
		}
		return
	}
	sv.clients[m.client] = true
	sv.l[sv.idx] = sv.longestClientDist(-1)
	// Record globally (the simulation's ground truth used for the trace).
	p := sv.p
	p.res.Assignment[m.client] = sv.idx
	p.res.Modifications++
	p.res.Trace = append(p.res.Trace, in.MaxInteractionPath(p.res.Assignment))
	// Broadcast the new l and ack the old owner.
	targets := make([]int, in.NumServers())
	for i := range targets {
		targets[i] = i
	}
	if err := p.net.Broadcast(sv.idx, targets, lUpdate{from: sv.idx, l: sv.l[sv.idx]}); err != nil {
		panic(fmt.Sprintf("dgreedy: l broadcast: %v", err))
	}
	if err := p.net.Send(sv.idx, m.from, reassignAck{from: sv.idx, seq: m.seq}); err != nil {
		panic(fmt.Sprintf("dgreedy: ack: %v", err))
	}
}

func (sv *server) handleReassignAck(m reassignAck) {
	if !sv.awaitAck || m.seq != sv.awaitSeq {
		return
	}
	sv.awaitAck = false
	// Broadcast our own updated l (dropped by losing the client).
	in := sv.p.in
	targets := make([]int, in.NumServers())
	for i := range targets {
		targets[i] = i
	}
	if err := sv.p.net.Broadcast(sv.idx, targets, lUpdate{from: sv.idx, l: sv.l[sv.idx]}); err != nil {
		panic(fmt.Sprintf("dgreedy: l broadcast: %v", err))
	}
	// Did the move reduce D?
	tr := sv.p.res.Trace
	if len(tr) > 0 && tr[len(tr)-1] < sv.p.res.FinalD-eps {
		sv.improved = true
	}
	sv.p.res.FinalD = sv.p.in.MaxInteractionPath(sv.p.res.Assignment)
	// Wait one settle period so both post-move l broadcasts reach every
	// server before the next decision.
	if err := sv.p.eng.Schedule(sv.p.settle, sv.nextCandidate); err != nil {
		panic(fmt.Sprintf("dgreedy: settle: %v", err))
	}
}

// endTurn passes the token, or terminates the protocol when a full cycle
// of servers produced no improvement.
func (sv *server) endTurn() {
	sv.hasToken = false
	next := sv.tok
	if sv.improved {
		next.noImprove = 0
	} else {
		next.noImprove++
	}
	if next.noImprove >= sv.p.in.NumServers() {
		sv.p.done = true
		return
	}
	target := (sv.idx + 1) % sv.p.in.NumServers()
	if err := sv.p.net.Send(sv.idx, target, next); err != nil {
		panic(fmt.Sprintf("dgreedy: token: %v", err))
	}
}

func sortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
