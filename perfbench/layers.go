package main

// The traced run (--trace 1). It replays the run's generated inputs
// in-process through each layer's public functions, timing every call
// from outside as a span, then runs the workload's nominal phase end to
// end twice — untraced, then with the generator recording spans — to
// give the server and generator layers and the tracing overhead.
//
// Every traced run replays all three input families (reads, the write
// tape and the planning cycle), so each workload reports every layer;
// the end-to-end part is the workload's own traffic.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"time"

	"diacap/internal/assign"
	"diacap/internal/core"
	"diacap/internal/latency"
	"diacap/internal/obs"
	"diacap/internal/perfkit"
	"diacap/internal/scale"
	"diacap/internal/service"
	"diacap/internal/shard"
)

// Replay sizes of the traced run.
const (
	traceReads      = 3000 // read bodies replayed in-process
	traceWrites     = 2000 // tape ops applied straight to the plane
	traceWriteHTTP  = 1000 // tape ops sent through the handler after them
	viewBatch       = 1000 // Plane.View calls per timed sample
	idleProbes      = 200  // sequential idle requests behind net.overhead_us
	tracePlanCycles = 2
)

// Request-id ranges, one per input family.
const (
	reqRead  = 1
	reqWrite = 1 << 20
	reqPlan  = 2 << 20
	reqE2E   = 3 << 20
)

// viewSink keeps the View loop from being optimized away.
var viewSink shard.ResolveView

// layerSamples collects per-call durations by metric name.
type layerSamples map[string][]float64

func (ls layerSamples) add(name string, d time.Duration, unit time.Duration) {
	ls[name] = append(ls[name], float64(d)/float64(unit))
}

// serveInProcess sends body to h in-process and returns the recorder.
func serveInProcess(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

func (r *runner) traced(ctx context.Context) error {
	tr := newTracer(1 << 18)
	ls := layerSamples{}
	if err := r.replayPlane(tr, ls); err != nil {
		return err
	}
	// Return the replay plane's memory before the server process builds
	// its own.
	runtime.GC()
	debug.FreeOSMemory()
	if err := r.replayPlan(tr, ls); err != nil {
		return err
	}
	if err := r.tracedE2E(ctx, tr, ls); err != nil {
		return err
	}

	for name, xs := range ls {
		r.metrics[name] = Metric{Value: median(xs), Unit: unitOf(name), Samples: len(xs)}
	}
	layers := tr.Layers()
	printLayers(layers)
	stem := fmt.Sprintf("trace-%s-seed%d", r.cfg.workload, r.cfg.seed)
	if err := tr.Write(r.cfg.outDir, stem); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	fmt.Printf("trace written to %s/%s.{spans.jsonl,layers.json}\n", r.cfg.outDir, stem)
	r.report = r.metrics
	return nil
}

// replayPlane times plane set-up, the read path and the write path
// in-process over the run's universe, read bodies and tape.
func (r *runner) replayPlane(tr *Tracer, ls layerSamples) error {
	u, sz := r.in.Universe, r.in.Sizes
	reg := newRegistry(true)
	flight := obs.NewRecorder(0)

	root := tr.Start("setup", 0, 0)
	id := tr.Start("shard.New", root, 0)
	plane, err := shard.New(shard.Options{Shards: sz.Shards, Servers: u.Servers, Clients: u.Clients, Metrics: reg, Flight: flight})
	ls.add("shard.new_s", tr.End(id), time.Second)
	if err != nil {
		return fmt.Errorf("building plane: %w", err)
	}
	id = tr.Start("shard.populate", root, 0)
	err = populate(plane, u)
	ls.add("shard.populate_s", tr.End(id), time.Second)
	if err != nil {
		return err
	}
	// What shard.New builds per shard: the full matrix over the servers
	// and one shard's share of the clients.
	shardSet := append(append([]latency.Coord(nil), u.Servers...), u.Clients[:len(u.Clients)/sz.Shards]...)
	id = tr.Start("latency.CoordsToMatrix", root, 0)
	latency.CoordsToMatrix(shardSet)
	ls.add("latency.coords_to_matrix_ms", tr.End(id), time.Millisecond)
	tr.End(root)
	svc := newService(plane, reg, flight)

	// Reads: the handler end to end, then each layer it calls.
	var cs perfkit.FlatMatrix
	out := make([]int, sz.BatchBig)
	lat := make([]float64, sz.BatchBig)
	for i := 0; i < traceReads; i++ {
		rb := r.readBody(i)
		kind := readKindNames[rb.Kind]
		req := reqRead + i
		root := tr.Start("read", 0, req)
		hreq := httptest.NewRequest(http.MethodPost, rb.Path, bytes.NewReader(rb.Body))
		rec := httptest.NewRecorder()
		id := tr.Start("service.ServeHTTP", root, req)
		svc.ServeHTTP(rec, hreq)
		handler := tr.End(id)
		if rec.Code != http.StatusOK {
			r.fail(fmt.Errorf("read %d: status %d", i, rec.Code))
		} else if err := CheckRead(rb, rec.Body.Bytes()); err != nil {
			r.fail(err)
		} else {
			r.attempted++
		}
		id = tr.Start("shard.View", root, req)
		for j := 0; j < viewBatch; j++ {
			viewSink = plane.View()
		}
		ls.add("shard.view_ns", tr.End(id)/viewBatch, time.Nanosecond)
		view := plane.View()
		n := len(rb.Coords)
		id = tr.Start("shard.ResolveInto", root, req)
		view.ResolveInto(rb.Coords, &cs, out[:n], lat[:n])
		resolve := tr.End(id)
		id = tr.Start("shard.FillDistances", root, req)
		view.FillDistances(rb.Coords, &cs)
		ls.add("shard.fill_us."+kind, tr.End(id), time.Microsecond)
		id = tr.Start("perfkit.NearestInto", root, req)
		perfkit.NearestInto(&cs, out[:n])
		ls.add("perfkit.nearest_us."+kind, tr.End(id), time.Microsecond)
		tr.End(root)
		ls.add("service.read_handler_us."+kind, handler, time.Microsecond)
		ls.add("shard.resolve_us."+kind, resolve, time.Microsecond)
		ls.add("service.read_codec_us."+kind, handler-resolve, time.Microsecond)
	}

	// Writes: the first stretch of the tape straight into the plane,
	// with the allocation delta around it, then the next stretch
	// through the handler.
	ctx := context.Background()
	var wc WriteChecker
	var m0, m1 runtime.MemStats
	// Nothing inside the measured loop allocates on the benchmark's
	// side: span names are prebuilt and durations land in a preallocated
	// slice.
	var spanNames [numOps]string
	for k, n := range opNames {
		spanNames[k] = "shard." + n
	}
	durs := make([]time.Duration, traceWrites)
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < traceWrites; i++ {
		op := &r.in.Tape[i]
		req := reqWrite + i
		var res shard.OpResult
		var err error
		id := tr.Start(spanNames[op.Kind], 0, req)
		switch op.Kind {
		case opJoin:
			res, err = plane.Join(ctx, op.Client)
		case opLeave:
			res, err = plane.Leave(ctx, op.Client)
		case opMigrateAuto:
			res, err = plane.Migrate(ctx, op.Client, -1)
		case opMigrateTo:
			res, err = plane.Migrate(ctx, op.Client, op.Target)
		}
		durs[i] = tr.End(id)
		if err == nil {
			err = wc.CheckResult(op, res.Epoch, res.Server, res.D)
		}
		if err != nil {
			r.fail(fmt.Errorf("tape op %d: %w", i, err))
			durs[i] = -1
		}
	}
	runtime.ReadMemStats(&m1)
	for i, d := range durs {
		if d >= 0 {
			r.attempted++
			ls.add(spanNames[r.in.Tape[i].Kind]+"_us", d, time.Microsecond)
		}
	}
	ls["shard.write_alloc_kb_per_op"] = []float64{float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / traceWrites}
	ls["shard.write_allocs_per_op"] = []float64{float64(m1.Mallocs-m0.Mallocs) / traceWrites}
	for i := traceWrites; i < traceWrites+traceWriteHTTP; i++ {
		op := &r.in.Tape[i]
		req := reqWrite + i
		hreq := httptest.NewRequest(http.MethodPost, "/v1/shard/assign", bytes.NewReader(op.Body))
		rec := httptest.NewRecorder()
		id := tr.Start("service.ServeHTTP", 0, req)
		svc.ServeHTTP(rec, hreq)
		d := tr.End(id)
		var err error
		if rec.Code != http.StatusOK {
			err = fmt.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
		} else {
			err = wc.Check(op, rec.Body.Bytes())
		}
		if err != nil {
			r.fail(fmt.Errorf("tape op %d: %w", i, err))
			continue
		}
		r.attempted++
		ls.add("service.write_handler_us", d, time.Microsecond)
	}
	rec := serveInProcess(svc, http.MethodGet, "/v1/shard/snapshot", nil)
	active := ActiveAfter(sz, u, r.in.Tape, traceWrites+traceWriteHTTP)
	if _, err := CheckSnapshot(u, active, rec.Body.Bytes(), wc.LastD); err != nil {
		r.fail(err)
	} else {
		r.attempted++
	}
	return nil
}

// replayPlan times the planning handlers and the layers they call.
func (r *runner) replayPlan(tr *Tracer, ls layerSamples) error {
	pc := r.in.Plan
	reg := newRegistry(false)
	svc := newService(nil, reg, obs.NewRecorder(0))
	clientIDs := make([]int, len(pc.Matrix))
	for i := range clientIDs {
		clientIDs[i] = i
	}
	for cycle := 0; cycle < tracePlanCycles; cycle++ {
		for kind := 0; kind < numPlanKinds; kind++ {
			req := reqPlan + cycle*numPlanKinds + kind
			name := planKindNames[kind]
			root := tr.Start("plan", 0, req)
			hreq := httptest.NewRequest(http.MethodPost, pc.Paths[kind], bytes.NewReader(pc.Bodies[kind]))
			rec := httptest.NewRecorder()
			id := tr.Start("service.ServeHTTP", root, req)
			svc.ServeHTTP(rec, hreq)
			ls.add("service.plan_handler_ms."+name, tr.End(id), time.Millisecond)
			var err error
			if rec.Code != http.StatusOK {
				err = fmt.Errorf("plan %s: status %d: %.200s", name, rec.Code, rec.Body.Bytes())
			} else {
				_, err = CheckPlan(pc, kind, rec.Body.Bytes())
			}
			if err != nil {
				r.fail(err)
			} else {
				r.attempted++
			}

			// The handler's first step: strict JSON decode of the body.
			dec := json.NewDecoder(bytes.NewReader(pc.Bodies[kind]))
			dec.DisallowUnknownFields()
			if kind <= planCoordsCap {
				var creq service.AssignCoordsRequest
				id = tr.Start("json.Decode", root, req)
				err := dec.Decode(&creq)
				d := tr.End(id)
				if err != nil {
					return fmt.Errorf("decoding plan body: %w", err)
				}
				if kind == planCoords {
					ls.add("service.plan_decode_ms.coords", d, time.Millisecond)
					id = tr.Start("scale.PlaceServers", root, req)
					_, err = scale.PlaceServers(creq.Clients, creq.PlaceServers, *creq.Seed)
					ls.add("scale.place_servers_ms", tr.End(id), time.Millisecond)
					if err != nil {
						return err
					}
				}
				id = tr.Start("scale.AssignCoords", root, req)
				_, err = scale.AssignCoords(creq.Clients, scale.Options{
					Servers: pc.PlacedSrvs, Capacities: core.Capacities(creq.Capacities), Seed: *creq.Seed, Metrics: reg,
				})
				metric := "scale.assign_coords_ms"
				if kind == planCoordsCap {
					metric = "scale.assign_coords_cap_ms"
				}
				ls.add(metric, tr.End(id), time.Millisecond)
				if err != nil {
					return err
				}
				tr.End(root)
				continue
			}
			var areq service.AssignRequest
			id = tr.Start("json.Decode", root, req)
			err = dec.Decode(&areq)
			d := tr.End(id)
			if err != nil {
				return fmt.Errorf("decoding plan body: %w", err)
			}
			if kind == planGreedy {
				ls.add("service.plan_decode_ms.matrix", d, time.Millisecond)
			}
			in, err := core.NewInstanceTrusted(latency.Matrix(areq.Matrix), areq.Servers, clientIDs)
			if err != nil {
				return err
			}
			alg, err := assign.ByNameSeeded(areq.Algorithm, *areq.Seed)
			if err != nil {
				return err
			}
			id = tr.Start("assign.Assign", root, req)
			a, err := alg.Assign(in, nil)
			ls.add("assign."+name+"_ms", tr.End(id), time.Millisecond)
			if err != nil {
				return err
			}
			id = tr.Start("core.MaxInteractionPath", root, req)
			in.MaxInteractionPath(a)
			ls.add("core.max_path_us", tr.End(id), time.Microsecond)
			fresh, err := core.NewInstanceTrusted(latency.Matrix(areq.Matrix), areq.Servers, clientIDs)
			if err != nil {
				return err
			}
			id = tr.Start("core.LowerBound", root, req)
			fresh.LowerBound()
			ls.add("core.lower_bound_ms", tr.End(id), time.Millisecond)
			id = tr.Start("core.ComputeOffsets", root, req)
			_, err = in.ComputeOffsets(a)
			ls.add("core.offsets_us", tr.End(id), time.Microsecond)
			if err != nil {
				return err
			}
			tr.End(root)
		}
	}
	return nil
}

// tracedE2E runs the workload's nominal phase end to end, untraced and
// then traced, for the server and generator layers and the tracing
// overhead, then probes idle single-request latency.
func (r *runner) tracedE2E(ctx context.Context, tr *Tracer, ls layerSamples) error {
	plan := r.cfg.workload == wPlan
	sp, err := startServer(ctx, r.cfg.seed, !plan, r.cfg.tiny)
	if err != nil {
		return err
	}
	defer sp.Stop()
	r.env.ServerGOMAXPROCS = sp.gomaxprocs
	mc := newConn(sp.addr)
	defer mc.close()
	c1, c2 := newConn(sp.addr), newConn(sp.addr)
	defer c1.close()
	defer c2.close()
	p0, err := r.probe(sp, mc)
	if err != nil {
		return err
	}
	ls["server.heap_mb_after_setup"] = []float64{p0.heap / (1 << 20)}

	var untracedP50, tracedP50 float64
	var late, queue []float64
	var pa, pb serverSnapshot
	completed := 0
	if plan {
		if _, err := r.planCycle(c1, nil); err != nil {
			return err
		}
		cycles := max(1, tracePlanCycles)
		var mids []float64
		for i := 0; i < cycles; i++ {
			cr, err := r.planCycle(c1, nil)
			if err != nil {
				return err
			}
			mids = append(mids, float64(cr.dur)/float64(time.Millisecond)/numPlanKinds)
		}
		untracedP50 = median(mids)
		if pa, err = r.probe(sp, mc); err != nil {
			return err
		}
		mids = mids[:0]
		for i := 0; i < cycles; i++ {
			cr, err := r.planCycle(c1, tr)
			if err != nil {
				return err
			}
			mids = append(mids, float64(cr.dur)/float64(time.Millisecond)/numPlanKinds)
			late = append(late, cr.late...)
			queue = append(queue, cr.queue...)
			completed += len(cr.lat)
		}
		tracedP50 = median(mids)
	} else {
		r.tapePos, r.readItem, r.writes = 0, 0, WriteChecker{}
		dur := r.pp.nominal / 2
		nominal := func(t *Tracer) (p50 float64, o *Outcome) {
			if r.cfg.workload == wChurnMixed {
				w, rd, _ := r.mixedPhase(ctx, c1, c2, nominalWriteRate, nominalReadRate, dur, 0, t)
				completed += len(w.Lat) + len(rd.Lat)
				return quantile(w.Lat, 0.5), &Outcome{Late: append(w.Late, rd.Late...), Queue: append(w.Queue, rd.Queue...)}
			}
			_, rd := r.readPhase(ctx, []*conn{c1, c2}, nominalReadRate, dur, 0, t)
			completed += len(rd.Lat)
			return quantile(rd.Lat, 0.5), rd
		}
		nominal(nil) // warm-up
		completed = 0
		untracedP50, _ = nominal(nil)
		if pa, err = r.probe(sp, mc); err != nil {
			return err
		}
		completed = 0
		var o *Outcome
		tracedP50, o = nominal(tr)
		late, queue = o.Late, o.Queue
	}
	if pb, err = r.probe(sp, mc); err != nil {
		return err
	}
	ls["server.gc_cycles_per_kreq"] = []float64{(pb.gc - pa.gc) / float64(max(completed, 1)) * 1000}
	ls["server.cpu_us_per_req"] = []float64{cpuPerReq(pa, pb, completed)}
	ls["service.shed_total"] = []float64{pb.shed - p0.shed}
	ls["shard.rejected_total"] = []float64{pb.reject - p0.reject}
	ls["loadgen.late_ms_p50"] = []float64{waitQuantile(late, 0.5)}
	ls["loadgen.late_ms_p99"] = []float64{waitQuantile(late, 0.99)}
	ls["loadgen.queue_ms_p99"] = []float64{waitQuantile(queue, 0.99)}
	ls["trace.overhead_pct"] = []float64{(tracedP50/untracedP50 - 1) * 100}

	// Idle single-request latency against the in-process handler time.
	var idle []float64
	var handlerUs float64
	if plan {
		for i := 0; i < 5; i++ {
			t := time.Now()
			status, body, err := c1.do(http.MethodPost, "/v1/assign", r.in.Plan.Bodies[planGreedy])
			d := time.Since(t)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d", status)
			}
			if err == nil {
				_, err = CheckPlan(r.in.Plan, planGreedy, body)
			}
			if err != nil {
				return fmt.Errorf("idle probe: %w", err)
			}
			r.attempted++
			idle = append(idle, float64(d)/float64(time.Microsecond))
		}
		handlerUs = median(ls["service.plan_handler_ms.greedy"]) * 1000
	} else {
		for i, n := 0, 0; n < idleProbes; i++ {
			rb := &r.in.Reads[i%len(r.in.Reads)]
			if rb.Kind != kindOne {
				continue
			}
			n++
			time.Sleep(time.Millisecond)
			t := time.Now()
			status, body, err := c1.do(http.MethodPost, rb.Path, rb.Body)
			d := time.Since(t)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d", status)
			}
			if err == nil {
				err = CheckRead(rb, body)
			}
			if err != nil {
				return fmt.Errorf("idle probe: %w", err)
			}
			r.attempted++
			idle = append(idle, float64(d)/float64(time.Microsecond))
		}
		handlerUs = median(ls["service.read_handler_us.one"])
	}
	ls["net.overhead_us"] = []float64{median(idle) - handlerUs}
	return nil
}
