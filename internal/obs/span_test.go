package obs

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"diacap/internal/testkit"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleRate: 1, Seed: 7})
	_, sp := tr.Root(context.Background(), "root")
	if sp == nil {
		t.Fatal("rate-1 tracer returned nil span")
	}
	tp := sp.Context().Traceparent()
	sc, ok := ParseTraceparent(tp)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) rejected own output", tp)
	}
	if sc != sp.Context() {
		t.Fatalf("round trip: got %+v want %+v", sc, sp.Context())
	}
	if !sc.Sampled {
		t.Fatal("sampled flag lost")
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-abc",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // version ff
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted", s)
		}
	}
	sc, ok := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	if !ok || sc.Sampled {
		t.Fatalf("unsampled parse: ok=%v sampled=%v", ok, sc.Sampled)
	}
}

func TestSpanTreeStructure(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleRate: 1, Seed: 42})
	ctx, root := tr.Root(context.Background(), "request")
	cctx, child := Child(ctx, "plane.join")
	_, grand := Child(cctx, "publish")
	grand.SetAttr(Int("epoch", 3))
	grand.End()
	child.Event("evaluator.apply", F64("d", 12.5))
	child.End()
	root.End()

	spans := tr.Collect(root.TraceID())
	if len(spans) != 3 {
		t.Fatalf("collected %d spans, want 3", len(spans))
	}
	roots := BuildSpanTree(spans)
	if len(roots) != 1 || roots[0].Name != "request" {
		t.Fatalf("tree roots = %+v", roots)
	}
	if len(roots[0].Children) != 1 || roots[0].Children[0].Name != "plane.join" {
		t.Fatalf("child layer wrong: %+v", roots[0].Children)
	}
	join := roots[0].Children[0]
	if len(join.Children) != 1 || join.Children[0].Name != "publish" {
		t.Fatalf("grandchild layer wrong: %+v", join.Children)
	}
	if len(join.Events) != 1 || join.Events[0].Name != "evaluator.apply" {
		t.Fatalf("span events = %+v", join.Events)
	}
}

func TestUnsampledIsNilAndSafe(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.Root(context.Background(), "x")
	if sp != nil {
		t.Fatal("nil tracer produced a span")
	}
	// Every method must no-op on nil spans and nil tracers.
	sp.SetAttr(Str("k", "v"))
	sp.Event("e")
	sp.End()
	if sp.TraceID() != "" {
		t.Fatal("nil span has a trace ID")
	}
	if _, c := Child(ctx, "child"); c != nil {
		t.Fatal("child of unsampled context is non-nil")
	}
	zero := NewTracer(TracerOptions{SampleRate: 0, Seed: 1})
	if _, sp := zero.Root(context.Background(), "x"); sp != nil {
		t.Fatal("rate-0 tracer produced a span")
	}
}

func TestSamplingRateApproximate(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleRate: 0.01, Seed: 99, Capacity: 1 << 15})
	sampled := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if _, sp := tr.Root(context.Background(), "r"); sp != nil {
			sampled++
			sp.End()
		}
	}
	if sampled < n/100/4 || sampled > n/100*4 {
		t.Fatalf("1%% sampling of %d roots produced %d spans", n, sampled)
	}
}

// Span trees from a fixed-seed tracer and a deterministic workload must
// be byte-identical across runs: IDs, structure, attributes.
func TestSeededSpanDeterminism(t *testing.T) {
	run := func() []SpanRecord {
		tr := NewTracer(TracerOptions{SampleRate: 1, Seed: 1234})
		for i := 0; i < 50; i++ {
			ctx, root := tr.Root(context.Background(), "op")
			root.SetAttr(Int("i", i))
			_, c := Child(ctx, "inner")
			c.End()
			root.End()
		}
		recs := tr.Snapshot()
		for i := range recs { // drop wall-clock fields
			recs[i].Start = time.Time{}
			recs[i].Duration = 0
			for j := range recs[i].Events {
				recs[i].Events[j].OffsetMs = 0
			}
		}
		return recs
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seeded span streams differ across runs")
	}
	if len(a) != 100 {
		t.Fatalf("got %d spans, want 100", len(a))
	}
}

func TestSpanRingConcurrent(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleRate: 1, Seed: 5, Capacity: 64})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ctx, root := tr.Root(context.Background(), "root")
				_, c := Child(ctx, "child")
				c.SetAttr(Int("worker", w))
				c.End()
				root.End()
			}
		}(w)
	}
	// Concurrent readers while the ring wraps many times over.
	var rg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					recs := tr.Snapshot()
					for i := 1; i < len(recs); i++ {
						if recs[i].Seq <= recs[i-1].Seq {
							t.Error("snapshot not seq-ordered")
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	if got := len(tr.Snapshot()); got != 64 {
		t.Fatalf("full ring snapshot has %d records, want 64", got)
	}
}

func TestTraceHandler(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleRate: 1, Seed: 11})
	ctx, root := tr.Root(context.Background(), "request")
	_, c := Child(ctx, "layer")
	c.End()
	root.End()

	rr := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/trace?trace="+root.TraceID(), nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	var doc TraceDoc
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Trace != root.TraceID() || len(doc.Spans) != 2 || len(doc.Tree) != 1 {
		t.Fatalf("doc = %+v", doc)
	}

	rr = httptest.NewRecorder()
	tr.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/trace", nil))
	if !strings.Contains(rr.Body.String(), root.TraceID()) {
		t.Fatal("index does not list the trace")
	}

	rr = httptest.NewRecorder()
	tr.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/trace?trace=deadbeef", nil))
	if rr.Code != 404 {
		t.Fatalf("missing trace: status %d, want 404", rr.Code)
	}
}

func TestHistogramExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_test_ms", "help", []float64{1, 10})
	h.Observe(0.5)
	h.ObserveExemplar(5, "aaaa")
	h.ObserveExemplar(100, "bbbb")
	h.ObserveExemplar(200, "") // no trace: count moves, exemplar does not
	ex := h.Exemplars()
	if len(ex) != 3 {
		t.Fatalf("len(ex) = %d, want 3 (two bounds + Inf)", len(ex))
	}
	if ex[0] != nil {
		t.Fatal("untraced bucket has an exemplar")
	}
	if ex[1] == nil || ex[1].Trace != "aaaa" || ex[1].Value != 5 {
		t.Fatalf("bucket-1 exemplar = %+v", ex[1])
	}
	if ex[2] == nil || ex[2].Trace != "bbbb" {
		t.Fatalf("+Inf exemplar = %+v", ex[2])
	}
	snap := r.Snapshot()["h_test_ms"].(HistogramSnapshot)
	if len(snap.Exemplars) != 3 || snap.Exemplars[1].Trace != "aaaa" {
		t.Fatalf("snapshot exemplars = %+v", snap.Exemplars)
	}
	if snap.Count != 4 {
		t.Fatalf("count = %d", snap.Count)
	}

	// A histogram that never saw a traced observation omits exemplars.
	r.Histogram("h_plain_ms", "help", []float64{1}).Observe(2)
	if snap := r.Snapshot()["h_plain_ms"].(HistogramSnapshot); snap.Exemplars != nil {
		t.Fatal("plain histogram leaked exemplars")
	}
}

// A sampled plane op's span — six attrs and one delta event — costs
// five allocations: the span, its context, the event list, the event
// attr store and the rendered IDs. The trace ID is rendered once per
// trace, so journaling it allocates nothing.
func TestSampledSpanAllocs(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts include race-detector bookkeeping")
	}
	tr := NewTracer(TracerOptions{SampleRate: 1, Seed: 5})
	ctx, root := tr.Root(context.Background(), "root")
	defer root.End()
	allocs := testing.AllocsPerRun(100, func() {
		_, sp := Child(ctx, "plane.migrate")
		sp.SetAttr(Int("client", 1), Int("shard", 2), Int("target", 3))
		sp.Event("evaluator.move", Int("shard", 2), Int("client", 1), Int("server", 3),
			F64("d", 1.5), Int("heapOps", 4), Int("pairTouches", 5), Int("pairRescans", 0))
		sp.SetAttr(Int("server", 3), Uint("epoch", 9), F64("d", 1.5))
		_ = sp.TraceID()
		sp.End()
	})
	if allocs > 5 {
		t.Fatalf("sampled child span: %v allocs, want <= 5", allocs)
	}
	if n := testing.AllocsPerRun(100, func() { _ = root.TraceID() }); n != 0 {
		t.Fatalf("TraceID: %v allocs, want 0", n)
	}
}
