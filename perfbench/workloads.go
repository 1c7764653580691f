package main

// The untraced end-to-end runs of the three workloads.

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"
)

func (r *runner) untraced(ctx context.Context) error {
	if r.cfg.workload == wPlan {
		return r.runPlan(ctx)
	}
	return r.runPlane(ctx)
}

// readBody returns the read body scheduled at position i.
func (r *runner) readBody(i int) *ReadBody {
	return &r.in.Reads[r.in.ReadOrder[i%len(r.in.ReadOrder)]]
}

// readPhase runs reads open-loop at rate for dur seconds over conns and
// tallies them; t, if non-nil, records the requests as spans.
func (r *runner) readPhase(ctx context.Context, conns []*conn, rate, dur float64, maxLag time.Duration, t *Tracer) (*PhaseResult, *Outcome) {
	base := r.readItem
	ol := &OpenLoop{
		Rate: rate, N: int(rate * dur), Conns: conns, MaxLag: maxLag, Trace: t, ReqBase: reqE2E + base,
		Req: func(i int) Request {
			rb := r.readBody(base + i)
			return Request{Path: rb.Path, Body: rb.Body}
		},
	}
	res := ol.Run(ctx)
	r.readItem += len(res.Samples)
	o := &Outcome{}
	o.Tally(res, func(i int) int { return r.readBody(base + i).Kind },
		func(s *Sample) error { return CheckRead(r.readBody(base+s.Item), s.Body) })
	r.add(o)
	return res, o
}

// writePhase runs the next stretch of the write tape open-loop at rate
// for dur seconds on one connection, so ops apply in tape order.
func (r *runner) writePhase(ctx context.Context, c *conn, rate, dur float64, maxLag time.Duration, t *Tracer) (*PhaseResult, *Outcome) {
	base := r.tapePos
	n := min(int(rate*dur), len(r.in.Tape)-base)
	ol := &OpenLoop{
		Rate: rate, N: n, Conns: []*conn{c}, MaxLag: maxLag, Trace: t, ReqBase: reqE2E + reqWrite + base,
		Req: func(i int) Request {
			return Request{Path: "/v1/shard/assign", Body: r.in.Tape[base+i].Body}
		},
	}
	res := ol.Run(ctx)
	r.tapePos += len(res.Samples)
	o := &Outcome{}
	o.Tally(res, func(i int) int { return r.in.Tape[base+i].Kind },
		func(s *Sample) error { return r.writes.Check(&r.in.Tape[base+s.Item], s.Body) })
	r.add(o)
	return res, o
}

// mixedPhase runs writes on wc beside reads on rc, concurrently.
func (r *runner) mixedPhase(ctx context.Context, wc, rc *conn, writeRate, readRate, dur float64, maxLag time.Duration, t *Tracer) (w, rd *Outcome, aborted bool) {
	var wres, rres *PhaseResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rres, rd = r.readPhase(ctx, []*conn{rc}, readRate, dur, maxLag, t)
	}()
	// Writes run on this goroutine. readPhase and writePhase touch
	// disjoint runner fields except the tallies, which add serializes.
	wres, w = r.writePhase(ctx, wc, writeRate, dur, maxLag, t)
	wg.Wait()
	return w, rd, wres.Aborted || rres.Aborted
}

// serverSnapshot is the server's resource use at one instant.
type serverSnapshot struct {
	cpu    time.Duration
	heap   float64 // bytes
	gc     float64 // cycles
	shed   float64
	reject float64
}

func (r *runner) probe(sp *serverProc, c *conn) (serverSnapshot, error) {
	cpu, err := procCPU(sp.Pid())
	if err != nil {
		return serverSnapshot{}, err
	}
	status, body, err := c.do(http.MethodGet, "/metrics", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("/metrics answered %d", status)
	}
	if err != nil {
		return serverSnapshot{}, err
	}
	return serverSnapshot{
		cpu:    cpu,
		heap:   scrape(body, famHeap, ""),
		gc:     scrape(body, famGC, ""),
		shed:   scrape(body, famAdmission, `decision="shed"`),
		reject: scrape(body, famRejected, ""),
	}, nil
}

// cpuPerReq is server CPU µs per completed request between two probes.
func cpuPerReq(a, b serverSnapshot, completed int) float64 {
	if completed == 0 {
		return math.NaN()
	}
	return float64(b.cpu-a.cpu) / float64(time.Microsecond) / float64(completed)
}

// snapshotCheck fetches /v1/shard/snapshot and checks it against the
// tape applied so far; it returns the published D.
func (r *runner) snapshotCheck(c *conn, lastD float64) float64 {
	status, body, err := c.do(http.MethodGet, "/v1/shard/snapshot", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("snapshot answered %d", status)
	}
	if err != nil {
		r.fail(err)
		return math.NaN()
	}
	active := ActiveAfter(r.in.Sizes, r.in.Universe, r.in.Tape, r.tapePos)
	snap, err := CheckSnapshot(r.in.Universe, active, body, lastD)
	if err != nil {
		r.fail(err)
		return math.NaN()
	}
	r.attempted++
	return snap.D
}

// searchCapacity returns the highest passing rate the search finds,
// or 0 if no rung passed. From a passing base rate it climbs by
// climbStep until a rung fails; from a failing one it descends until a
// rung passes. Bisections then narrow the bracket.
func searchCapacity(ctx context.Context, base float64, basePass bool, maxSteps int, try func(rate float64) bool) float64 {
	lo, hi := base, 0.0
	if !basePass {
		lo, hi = 0, base
	}
	for i := 0; i < maxSteps && (lo == 0 || hi == 0) && ctx.Err() == nil; i++ {
		rate := lo * climbStep
		if hi > 0 {
			rate = hi / climbStep
		}
		if try(rate) {
			lo = rate
		} else {
			hi = rate
		}
	}
	for i := 0; i < bisectRounds && lo > 0 && hi > 0 && ctx.Err() == nil; i++ {
		if mid := math.Sqrt(lo * hi); try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// rungPass reports whether a rung met its p99 latency limit with no
// failures and no backlog that outgrew MaxLag.
func rungPass(o *Outcome, aborted bool, limitMs float64) bool {
	return !aborted && o.Failed == 0 && len(o.Lat) > 0 && quantile(o.Lat, 0.99) <= limitMs
}

func (r *runner) runPlane(ctx context.Context) error {
	sp, err := r.setupServers(ctx, true, setupRounds)
	if err != nil {
		return err
	}
	defer sp.Stop()
	mc := newConn(sp.addr)
	defer mc.close()
	c1, c2 := newConn(sp.addr), newConn(sp.addr)
	defer c1.close()
	defer c2.close()
	churn := r.cfg.workload == wChurnMixed
	pp := r.pp

	// Warm-up: the nominal load, checked but not timed.
	if churn {
		r.mixedPhase(ctx, c1, c2, nominalWriteRate, nominalReadRate, pp.warmup, 0, nil)
	} else {
		r.readPhase(ctx, []*conn{c1, c2}, nominalReadRate, pp.warmup, 0, nil)
	}

	runtime.GC()
	steal0 := hostSteal()
	p0, err := r.probe(sp, mc)
	if err != nil {
		return err
	}
	var reads, writes *Outcome
	if churn {
		writes, reads, _ = r.mixedPhase(ctx, c1, c2, nominalWriteRate, nominalReadRate, pp.nominal, 0, nil)
	} else {
		_, reads = r.readPhase(ctx, []*conn{c1, c2}, nominalReadRate, pp.nominal, 0, nil)
	}
	p1, err := r.probe(sp, mc)
	if err != nil {
		return err
	}
	steal := hostSteal() - steal0
	completed := len(reads.Lat)
	if churn {
		completed += len(writes.Lat)
	}
	cpu := cpuPerReq(p0, p1, completed)

	var d float64
	if churn {
		d = r.snapshotCheck(mc, r.writes.LastD)
	} else {
		d = r.snapshotCheck(mc, math.NaN())
	}

	// Capacity: the highest rate whose rung meets the latency limits.
	// The nominal phase is the first rung.
	try := func(rate float64) bool {
		res, rd := r.readPhase(ctx, []*conn{c1, c2}, rate, pp.rung, 5*readLimitMs*time.Millisecond, nil)
		return rungPass(rd, res.Aborted, readLimitMs)
	}
	base, steps := nominalReadRate, maxReadClimb
	if churn {
		base, steps = nominalWriteRate, maxWriteClimb
		try = func(rate float64) bool {
			w, rd, aborted := r.mixedPhase(ctx, c1, c2, rate, nominalReadRate, pp.rung, 5*writeLimitMs*time.Millisecond, nil)
			return rungPass(w, aborted, writeLimitMs) && rungPass(rd, aborted, readLimitMs)
		}
	}
	basePass := rungPass(reads, false, readLimitMs) && (!churn || rungPass(writes, false, writeLimitMs))
	capacity := searchCapacity(ctx, base, basePass, steps, try)
	if churn {
		// The whole tape sent so far must have landed.
		r.snapshotCheck(mc, r.writes.LastD)
	}
	rss, err := procPeakRSS(sp.Pid())
	if err != nil {
		return err
	}

	r.named("server_cpu_us_per_req", cpu, "us", completed)
	r.setMetric("server_peak_rss_mb", rss, "MB", 0)
	r.setMetric("d_ms", d, "ms", 0)

	r.latencyReport("read", reads.Lat)
	for kind, name := range readKindNames {
		r.latencyReport("read."+name, reads.KindLat(kind))
	}
	primary := reads
	if churn {
		primary = writes
		r.latencyReport("write", writes.Lat)
		r.named("write_capacity_ops", capacity, "ops/s", 0)
		r.named("plane_d_ms", d, "ms", 0)
	} else {
		r.named("read_capacity_rps", capacity, "req/s", 0)
	}
	adj := primary.StealAdjusted()
	r.setMetric("p50_ms", quantile(adj, 0.5), "ms", len(adj))
	r.named("adjusted_p90_ms", quantile(adj, 0.9), "ms", len(adj))
	r.named("server.gc_cycles", p1.gc-p0.gc, "count", 0)
	r.named("host.steal_s", steal, "s", 0)
	r.named("loadgen.late_ms_p50", waitQuantile(reads.Late, 0.5), "ms", len(reads.Late))
	r.named("loadgen.late_ms_p99", waitQuantile(reads.Late, 0.99), "ms", len(reads.Late))
	r.named("loadgen.queue_ms_p99", waitQuantile(reads.Queue, 0.99), "ms", len(reads.Queue))
	r.named("failed_share", float64(r.failed)/float64(max(r.attempted, 1)), "ratio", r.attempted)
	return nil
}

// setMetric sets a result-line metric, which the report repeats.
func (r *runner) setMetric(name string, v float64, unit string, samples int) {
	r.metrics[name] = Metric{Value: v, Unit: unit, Samples: samples}
	r.report[name] = r.metrics[name]
}

// named sets a report-only metric.
func (r *runner) named(name string, v float64, unit string, samples int) {
	r.report[name] = Metric{Value: v, Unit: unit, Samples: samples}
}

// latencyReport reports p50, p90 and p99 of lat as <prefix>_p50_ms etc.
func (r *runner) latencyReport(prefix string, lat []float64) {
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}} {
		r.named(prefix+"_"+q.name+"_ms", quantile(lat, q.q), "ms", len(lat))
	}
}

func (r *runner) runPlan(ctx context.Context) error {
	sp, err := r.setupServers(ctx, false, planSetupRounds)
	if err != nil {
		return err
	}
	defer sp.Stop()
	mc := newConn(sp.addr)
	defer mc.close()
	c := newConn(sp.addr)
	defer c.close()

	// One checked cycle warms the server before timing.
	if _, err := r.planCycle(c, nil); err != nil {
		return err
	}
	p0, err := r.probe(sp, mc)
	if err != nil {
		return err
	}
	var cycles []*cycleResult
	start := time.Now()
	for len(cycles) < 2 || time.Since(start).Seconds() < r.cfg.seconds {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		cr, err := r.planCycle(c, nil)
		if err != nil {
			return err
		}
		cycles = append(cycles, cr)
	}
	p1, err := r.probe(sp, mc)
	if err != nil {
		return err
	}
	rss, err := procPeakRSS(sp.Pid())
	if err != nil {
		return err
	}
	var all []float64
	for _, cr := range cycles {
		all = append(all, cr.lat...)
		for k := range cr.d {
			if cr.d[k] != cycles[0].d[k] {
				r.fail(fmt.Errorf("plan %s: D %v differs from the first cycle's %v", planKindNames[k], cr.d[k], cycles[0].d[k]))
			}
		}
	}
	// The bounded p50 scales each cycle's median by the share of CPU
	// the host kept during the cycle, as the open-loop phases do per
	// window.
	var mids []float64
	for _, cr := range cycles {
		share := min(cr.steal/(cr.dur.Seconds()*float64(runtime.NumCPU())), maxStealShare)
		mids = append(mids, median(cr.lat)*(1-share))
	}
	meanD := 0.0
	for _, d := range cycles[0].d {
		meanD += d / float64(len(cycles[0].d))
	}
	r.setMetric("p50_ms", median(mids), "ms", len(mids))
	r.setMetric("d_ms", meanD, "ms", 0)
	r.named("server_cpu_us_per_req", cpuPerReq(p0, p1, len(all)), "us", len(all))
	r.setMetric("server_peak_rss_mb", rss, "MB", 0)
	var allBusy time.Duration
	for _, cr := range cycles {
		allBusy += cr.dur
	}
	r.named("plan_rps", float64(len(all))/allBusy.Seconds(), "req/s", len(all))
	r.named("plan_mean_d_ms", meanD, "ms", 0)
	r.latencyReport("plan", all)
	r.named("failed_share", float64(r.failed)/float64(max(r.attempted, 1)), "ratio", r.attempted)
	return nil
}

// cycleResult is one planning cycle: per-request latency (sorted, ms),
// the D of each answer in cycle order, and the cycle's duration. The
// cycle is submitted at once to one connection: late is the gap between
// a response and the next send, queue the wait from the cycle's start
// to each send.
type cycleResult struct {
	lat         []float64
	d           [numPlanKinds]float64
	dur         time.Duration
	late, queue []float64
	steal       float64 // host steal time during the cycle, s
}

// planCycle sends the cycle closed-loop on c, then checks each answer;
// t, if non-nil, records the requests as spans.
func (r *runner) planCycle(c *conn, t *Tracer) (*cycleResult, error) {
	pc := r.in.Plan
	cr := &cycleResult{}
	var bodies [numPlanKinds][]byte
	var errs [numPlanKinds]error
	steal0 := hostSteal()
	start := time.Now()
	var prev time.Duration
	for kind := 0; kind < numPlanKinds; kind++ {
		sent := time.Since(start)
		status, body, err := c.do(http.MethodPost, pc.Paths[kind], pc.Bodies[kind])
		done := time.Since(start)
		cr.lat = append(cr.lat, ms(done-sent))
		cr.late = append(cr.late, ms(sent-prev))
		cr.queue = append(cr.queue, ms(sent))
		prev = done
		if t != nil {
			req := reqE2E + reqPlan + kind
			root := t.Record("loadgen.request", 0, req, start, 0, done)
			t.Record("loadgen.wait", root, req, start, 0, sent)
			t.Record("http.roundtrip", root, req, start, sent, done)
		}
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("plan %s: status %d: %.200s", planKindNames[kind], status, body)
		}
		bodies[kind], errs[kind] = body, err
	}
	cr.dur = time.Since(start)
	cr.steal = hostSteal() - steal0
	for kind, err := range errs {
		if err == nil {
			cr.d[kind], err = CheckPlan(pc, kind, bodies[kind])
		}
		if err != nil {
			r.fail(err)
			continue
		}
		r.attempted++
	}
	sort.Float64s(cr.lat)
	return cr, nil
}
