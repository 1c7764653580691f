package main

import (
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"diacap/internal/obs"
	"diacap/internal/service"
)

// tinyWorld builds the tiny inputs and an in-process service over a
// populated tiny plane.
func tinyWorld(t *testing.T) (*Inputs, *service.Server) {
	t.Helper()
	in, err := NewInputs(Tiny, 11, 50, 100)
	if err != nil {
		t.Fatal(err)
	}
	reg := newRegistry(true)
	flight := obs.NewRecorder(0)
	plane, err := buildPlane(Tiny, in.Universe, reg, flight)
	if err != nil {
		t.Fatal(err)
	}
	return in, newService(plane, reg, flight)
}

func answer(t *testing.T, h http.Handler, method, path string, body []byte) []byte {
	t.Helper()
	rec := serveInProcess(h, method, path, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// mutate decodes body into v, applies f, and re-encodes.
func mutate[T any](t *testing.T, body []byte, f func(v *T)) []byte {
	t.Helper()
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	f(&v)
	out, err := json.Marshal(&v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func firstRead(in *Inputs, kind int) *ReadBody {
	for i := range in.Reads {
		if in.Reads[i].Kind == kind {
			return &in.Reads[i]
		}
	}
	return nil
}

// TestCheckersCatchFaults feeds each checker a correct answer and a
// faulty copy of it: the correct one must pass, and each fault must be
// counted as a failed request.
func TestCheckersCatchFaults(t *testing.T) {
	in, svc := tinyWorld(t)
	batch := firstRead(in, kindMid)
	one := firstRead(in, kindOne)
	good := answer(t, svc, http.MethodPost, batch.Path, batch.Body)
	goodOne := answer(t, svc, http.MethodPost, one.Path, one.Body)

	wrongServer := mutate(t, good, func(r *service.AssignBatchResponse) {
		r.Servers[1] = (r.Servers[1] + 1) % Tiny.Servers
	})
	partial := mutate(t, good, func(r *service.AssignBatchResponse) {
		r.Servers, r.LatencyMs = r.Servers[:len(r.Servers)-1], r.LatencyMs[:len(r.LatencyMs)-1]
	})
	wrongLatency := mutate(t, goodOne, func(r *service.AssignOneResponse) {
		r.LatencyMs = math.Nextafter(r.LatencyMs, math.Inf(1))
	})

	snap := answer(t, svc, http.MethodGet, "/v1/shard/snapshot", nil)
	active := ActiveAfter(Tiny, in.Universe, in.Tape, 0)
	var s service.ShardSnapshotResponse
	if err := json.Unmarshal(snap, &s); err != nil {
		t.Fatal(err)
	}
	perturbedD := mutate(t, snap, func(r *service.ShardSnapshotResponse) { r.D *= 1 + 1e-6 })
	badLoads := mutate(t, snap, func(r *service.ShardSnapshotResponse) { r.Loads[0]++ })

	pc := in.Plan
	psvc := newService(nil, newRegistry(false), obs.NewRecorder(0))
	goodCap := answer(t, psvc, http.MethodPost, pc.Paths[planCoordsCap], pc.Bodies[planCoordsCap])
	overCap := mutate(t, goodCap, func(r *service.AssignCoordsResponse) {
		// Move every client onto server 0 and keep the loads consistent,
		// so only the capacity check can catch it.
		for i := range r.Assignment {
			r.Assignment[i] = 0
		}
		for k := range r.Loads {
			r.Loads[k] = 0
		}
		r.Loads[0] = len(r.Assignment)
	})
	goodMatrix := answer(t, psvc, http.MethodPost, pc.Paths[planGreedy], pc.Bodies[planGreedy])
	wrongD := mutate(t, goodMatrix, func(r *service.AssignResponse) { r.D *= 1 + 1e-6 })
	badBound := mutate(t, goodMatrix, func(r *service.AssignResponse) { r.LowerBound = r.D * 1.01 })

	type probe struct {
		name  string
		check func() error
		fault bool
	}
	probes := []probe{
		{"read batch", func() error { return CheckRead(batch, good) }, false},
		{"read one", func() error { return CheckRead(one, goodOne) }, false},
		{"wrong server", func() error { return CheckRead(batch, wrongServer) }, true},
		{"partial batch", func() error { return CheckRead(batch, partial) }, true},
		{"wrong latency", func() error { return CheckRead(one, wrongLatency) }, true},
		{"snapshot", func() error { _, err := CheckSnapshot(in.Universe, active, snap, s.D); return err }, false},
		{"perturbed D", func() error { _, err := CheckSnapshot(in.Universe, active, perturbedD, math.NaN()); return err }, true},
		{"last write D", func() error { _, err := CheckSnapshot(in.Universe, active, snap, s.D+1); return err }, true},
		{"loads", func() error { _, err := CheckSnapshot(in.Universe, active, badLoads, math.NaN()); return err }, true},
		{"coords cap", func() error { _, err := CheckPlan(pc, planCoordsCap, goodCap); return err }, false},
		{"over capacity", func() error { _, err := CheckPlan(pc, planCoordsCap, overCap); return err }, true},
		{"matrix", func() error { _, err := CheckPlan(pc, planGreedy, goodMatrix); return err }, false},
		{"perturbed plan D", func() error { _, err := CheckPlan(pc, planGreedy, wrongD); return err }, true},
		{"lower bound above D", func() error { _, err := CheckPlan(pc, planGreedy, badBound); return err }, true},
	}
	samples := make([]Sample, len(probes))
	faults := 0
	for i, p := range probes {
		samples[i] = Sample{Item: i, Status: http.StatusOK}
		if p.fault {
			faults++
		}
	}
	var o Outcome
	o.Tally(&PhaseResult{Samples: samples}, func(int) int { return 0 }, func(s *Sample) error {
		err := probes[s.Item].check()
		if (err != nil) != probes[s.Item].fault {
			t.Errorf("%s: err = %v, fault = %v", probes[s.Item].name, err, probes[s.Item].fault)
		}
		return err
	})
	if o.Failed != faults || o.Attempted != len(probes) {
		t.Errorf("counted %d failed of %d, want %d of %d", o.Failed, o.Attempted, faults, len(probes))
	}
}

// TestWriteChecker checks epoch monotonicity and explicit-target moves.
func TestWriteChecker(t *testing.T) {
	var wc WriteChecker
	join := &WriteOp{Kind: opJoin}
	to := &WriteOp{Kind: opMigrateTo, Target: 2}
	if err := wc.CheckResult(join, 5, 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := wc.CheckResult(join, 5, 1, 10); err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Errorf("repeated epoch: %v", err)
	}
	if err := wc.CheckResult(to, 6, 3, 10); err == nil {
		t.Error("migrate to 2 landed on 3 unnoticed")
	}
	if err := wc.CheckResult(to, 7, 2, 11); err != nil || wc.LastD != 11 {
		t.Errorf("err %v, last D %v", err, wc.LastD)
	}
}

// TestTallyCountsTransportAndStatus counts a transport error and a 429
// as failed requests without calling the answer checker.
func TestTallyCountsTransportAndStatus(t *testing.T) {
	samples := []Sample{
		{Item: 0, Status: http.StatusOK, Done: 2, Due: 1},
		{Item: 1, Err: http.ErrHandlerTimeout},
		{Item: 2, Status: http.StatusTooManyRequests, Body: []byte(`{"error":"shed"}`)},
	}
	var o Outcome
	calls := 0
	o.Tally(&PhaseResult{Samples: samples}, func(int) int { return 0 }, func(*Sample) error { calls++; return nil })
	if o.Failed != 2 || len(o.Lat) != 1 || calls != 1 {
		t.Errorf("failed %d, latencies %d, checker calls %d", o.Failed, len(o.Lat), calls)
	}
}
