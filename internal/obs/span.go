package obs

// Distributed tracing: spans with trace/span IDs, parent links, and typed
// attributes, propagated in the W3C traceparent format across the HTTP API
// and the live TCP protocol. The Tracer keeps completed spans in a
// fixed-size lock-free ring — the memory bound is capacity × one record —
// so a span tree for a recent trace ID can always be reconstructed from a
// running server without any external collector.
//
// Sampling is decided once at the root (head-based); child spans inherit
// the decision. Unsampled requests cost one atomic RNG step and carry nil
// *Span values, whose methods all no-op, so call sites never branch.
// Span and trace IDs come from a seeded splitmix64 stream: a fixed seed
// plus a deterministic workload reproduces byte-identical span trees,
// which is what makes traced scenario replays comparable across runs.

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceparentHeader is the W3C trace-context header name.
const TraceparentHeader = "traceparent"

// TraceID identifies one end-to-end request trace (16 bytes, hex-encoded
// on the wire). The zero value is invalid per the W3C spec.
type TraceID [16]byte

// String renders the ID as 32 lowercase hex characters.
func (t TraceID) String() string {
	var b [32]byte
	hex.Encode(b[:], t[:])
	return string(b[:])
}

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// SpanID identifies one span within a trace (8 bytes, hex-encoded on the
// wire). The zero value is invalid.
type SpanID [8]byte

// String renders the ID as 16 lowercase hex characters.
func (s SpanID) String() string {
	var b [16]byte
	hex.Encode(b[:], s[:])
	return string(b[:])
}

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// SpanContext is the propagated part of a span: enough to parent a remote
// child and to carry the sampling decision across process boundaries.
type SpanContext struct {
	Trace   TraceID
	Span    SpanID
	Sampled bool
}

// Traceparent renders the context in W3C trace-context form:
// 00-<32 hex trace>-<16 hex span>-<2 hex flags>.
func (sc SpanContext) Traceparent() string {
	flags := "00"
	if sc.Sampled {
		flags = "01"
	}
	return "00-" + sc.Trace.String() + "-" + sc.Span.String() + "-" + flags
}

// ParseTraceparent parses a W3C traceparent value. It accepts version 00
// (and unknown forward-compatible versions with the same prefix layout),
// and rejects malformed input and all-zero IDs.
func ParseTraceparent(s string) (SpanContext, bool) {
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, false
	}
	var version [1]byte
	if _, err := hex.Decode(version[:], []byte(s[0:2])); err != nil || version[0] == 0xff {
		return SpanContext{}, false
	}
	if version[0] == 0 && len(s) != 55 {
		return SpanContext{}, false
	}
	var sc SpanContext
	if _, err := hex.Decode(sc.Trace[:], []byte(s[3:35])); err != nil || sc.Trace.IsZero() {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.Span[:], []byte(s[36:52])); err != nil || sc.Span.IsZero() {
		return SpanContext{}, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(s[53:55])); err != nil {
		return SpanContext{}, false
	}
	sc.Sampled = flags[0]&1 != 0
	return sc, true
}

// Attr is one typed key/value attribute on a span or flight event. An
// attr is an immutable value: numbers are kept as bits and rendered only
// when read (Value, JSON), so recording one on an always-on path — a
// flight journal entry per published epoch — formats nothing. The JSON
// form is {"key": k, "value": "<rendered value>"}.
type Attr struct {
	Key  string
	kind attrKind
	bits uint64
	str  string
}

type attrKind uint8

const (
	attrStr attrKind = iota
	attrInt
	attrUint
	attrF64
)

// Str builds a string attribute.
func Str(key, value string) Attr { return Attr{Key: key, str: value} }

// Int builds an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, kind: attrInt, bits: uint64(int64(v))} }

// Uint builds an unsigned integer attribute.
func Uint(key string, v uint64) Attr { return Attr{Key: key, kind: attrUint, bits: v} }

// F64 builds a float attribute (shortest round-trip rendering).
func F64(key string, v float64) Attr { return Attr{Key: key, kind: attrF64, bits: math.Float64bits(v)} }

// Value renders the attribute's value.
func (a Attr) Value() string {
	switch a.kind {
	case attrInt:
		return strconv.FormatInt(int64(a.bits), 10)
	case attrUint:
		return strconv.FormatUint(a.bits, 10)
	case attrF64:
		return formatFloat(math.Float64frombits(a.bits))
	}
	return a.str
}

// String renders the attribute as key=value.
func (a Attr) String() string { return a.Key + "=" + a.Value() }

// attrJSON is Attr's wire form.
type attrJSON struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// MarshalJSON renders the attribute as {"key": ..., "value": ...}.
func (a Attr) MarshalJSON() ([]byte, error) {
	return json.Marshal(attrJSON{Key: a.Key, Value: a.Value()})
}

// UnmarshalJSON reads the wire form back as a string attribute.
func (a *Attr) UnmarshalJSON(b []byte) error {
	var w attrJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*a = Str(w.Key, w.Value)
	return nil
}

// SpanEvent is a point-in-time annotation inside a span, e.g. one
// incremental-evaluator delta applied while a plane op held the lock.
type SpanEvent struct {
	OffsetMs float64 `json:"offsetMs"` // since span start
	Name     string  `json:"name"`
	Attrs    []Attr  `json:"attrs,omitempty"`
}

// SpanRecord is one completed span as stored in the tracer ring and
// exposed over /debug/trace.
type SpanRecord struct {
	Seq      uint64      `json:"seq"`
	Trace    string      `json:"trace"`
	Span     string      `json:"span"`
	Parent   string      `json:"parent,omitempty"`
	Name     string      `json:"name"`
	Start    time.Time   `json:"start"`
	Duration float64     `json:"durationMs"`
	Attrs    []Attr      `json:"attrs,omitempty"`
	Events   []SpanEvent `json:"events,omitempty"`
}

// spanAttrCap is the number of attrs a span holds before its attr
// list allocates; the plane's op spans carry up to six.
const spanAttrCap = 6

// Span is one in-flight timed operation. A nil *Span is the unsampled
// case: every method no-ops, so instrumentation is unconditional.
//
// A sampled span is one allocation plus its context: the attr list
// starts in attrBuf, event attrs are copied into one growing store,
// the trace ID is rendered once per trace and shared with local
// children, and End publishes the span's own embedded record.
type Span struct {
	t      *Tracer
	name   string
	sc     SpanContext
	trace  string // sc.Trace in hex
	parent SpanID
	start  time.Time

	mu      sync.Mutex
	attrs   []Attr
	attrBuf [spanAttrCap]Attr
	events  []SpanEvent
	evAttrs []Attr // backs every event's Attrs
	ended   bool
	rec     SpanRecord
}

// newSpan builds a sampled span of trace (hex form traceHex).
func newSpan(t *Tracer, name string, sc SpanContext, traceHex string, parent SpanID) *Span {
	s := &Span{t: t, name: name, sc: sc, trace: traceHex, parent: parent, start: time.Now()}
	s.attrs = s.attrBuf[:0]
	return s
}

// Context returns the propagation context (zero for a nil span).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// TraceID returns the hex trace ID, or "" for a nil span.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.trace
}

// SetAttr appends attributes to the span. Attrs set after End are
// dropped.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.attrs = append(s.attrs, attrs...)
	}
	s.mu.Unlock()
}

// Event appends a point-in-time annotation to the span. Events after
// End are dropped.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	off := durationMillis(time.Since(s.start))
	s.mu.Lock()
	if !s.ended {
		// Copied, never retained, so the caller's variadic array stays
		// on its stack. Earlier events keep their slices of a
		// reallocated store's old array.
		n := len(s.evAttrs)
		s.evAttrs = append(s.evAttrs, attrs...)
		m := len(s.evAttrs)
		s.events = append(s.events, SpanEvent{OffsetMs: off, Name: name, Attrs: s.evAttrs[n:m:m]})
	}
	s.mu.Unlock()
}

// End completes the span and publishes it to the tracer ring. Idempotent:
// only the first End records.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	// Span and parent IDs share one rendered string.
	var ids [32]byte
	hex.Encode(ids[:16], s.sc.Span[:])
	n := 16
	if !s.parent.IsZero() {
		hex.Encode(ids[16:], s.parent[:])
		n = 32
	}
	id := string(ids[:n])
	s.rec = SpanRecord{
		Trace:    s.trace,
		Span:     id[:16],
		Parent:   id[16:],
		Name:     s.name,
		Start:    s.start,
		Duration: durationMillis(d),
		Attrs:    s.attrs,
		Events:   s.events,
	}
	s.mu.Unlock()
	s.t.push(&s.rec)
}

func durationMillis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Tracer metric names, package-level consts per the dialint
// obs-preregister schema discipline.
const (
	nTraceSpansStarted = "diacap_trace_spans_total"
	hTraceSpansStarted = "Sampled spans started, by kind (root or child)."
)

// TracerOptions configures a Tracer.
type TracerOptions struct {
	// SampleRate is the fraction of new traces that are recorded
	// (head-based, decided at the root). <= 0 disables tracing entirely;
	// >= 1 records everything.
	SampleRate float64
	// Capacity is the completed-span ring size, rounded up to a power of
	// two. 0 means 4096. Memory is bounded by Capacity records.
	Capacity int
	// Seed seeds the splitmix64 ID/sampling stream. 0 derives a seed from
	// the wall clock; a fixed nonzero seed makes ID assignment (and hence
	// span trees for a deterministic workload) reproducible.
	Seed uint64
	// Metrics, if non-nil, receives span-volume counters.
	Metrics *Registry
}

// Tracer makes sampling decisions, allocates IDs, and retains completed
// spans in a lock-free ring. A nil *Tracer is valid and disables tracing.
type Tracer struct {
	rate      float64
	threshold uint64 // sample when next() <= threshold
	rng       atomic.Uint64
	head      atomic.Uint64
	mask      uint64
	slots     []atomic.Pointer[SpanRecord]
	roots     *Counter
	children  *Counter
}

// NewTracer builds a tracer. See TracerOptions for the knobs.
func NewTracer(opts TracerOptions) *Tracer {
	capacity := ceilPow2(opts.Capacity, 4096)
	t := &Tracer{
		rate:  opts.SampleRate,
		mask:  uint64(capacity - 1),
		slots: make([]atomic.Pointer[SpanRecord], capacity),
	}
	switch {
	case opts.SampleRate >= 1:
		t.threshold = math.MaxUint64
	case opts.SampleRate > 0:
		t.threshold = uint64(opts.SampleRate * float64(math.MaxUint64))
	}
	seed := opts.Seed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	t.rng.Store(seed)
	if opts.Metrics != nil {
		t.roots = opts.Metrics.Counter(nTraceSpansStarted, hTraceSpansStarted, L("kind", "root"))
		t.children = opts.Metrics.Counter(nTraceSpansStarted, hTraceSpansStarted, L("kind", "child"))
	}
	return t
}

// SampleRate reports the configured head sampling rate (0 for nil).
func (t *Tracer) SampleRate() float64 {
	if t == nil {
		return 0
	}
	return t.rate
}

// ceilPow2 rounds n up to a power of two, defaulting when n <= 0.
func ceilPow2(n, def int) int {
	if n <= 0 {
		n = def
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// next advances the shared splitmix64 stream by one step: one atomic
// add, whatever the contention.
func (t *Tracer) next() uint64 {
	z := t.rng.Add(0x9E3779B97F4A7C15)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		a, b := t.next(), t.next()
		for i := 0; i < 8; i++ {
			id[i] = byte(a >> (8 * i))
			id[8+i] = byte(b >> (8 * i))
		}
	}
	return id
}

func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		a := t.next()
		for i := 0; i < 8; i++ {
			id[i] = byte(a >> (8 * i))
		}
	}
	return id
}

// push stores a completed record in the ring, evicting the oldest.
func (t *Tracer) push(rec *SpanRecord) {
	idx := t.head.Add(1) - 1
	rec.Seq = idx + 1
	t.slots[idx&t.mask].Store(rec)
}

type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying the span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// Root starts a new trace: it makes the sampling decision and, when
// sampled, returns a root span installed in the context. Unsampled (or
// nil-tracer) requests get back the original context and a nil span.
func (t *Tracer) Root(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil || t.threshold == 0 {
		return ctx, nil
	}
	if t.threshold != math.MaxUint64 && t.next() > t.threshold {
		return ctx, nil
	}
	trace := t.newTraceID()
	s := newSpan(t, name, SpanContext{Trace: trace, Span: t.newSpanID(), Sampled: true}, trace.String(), SpanID{})
	if t.roots != nil {
		t.roots.Inc()
	}
	return ContextWithSpan(ctx, s), s
}

// RootFrom continues a remote trace: the caller parsed an incoming
// traceparent and this process's root becomes a child of the remote span.
// The upstream sampling decision is honored — an unsampled remote context
// yields a nil span.
func (t *Tracer) RootFrom(ctx context.Context, name string, remote SpanContext) (context.Context, *Span) {
	if t == nil || !remote.Sampled || remote.Trace.IsZero() {
		return ctx, nil
	}
	s := newSpan(t, name, SpanContext{Trace: remote.Trace, Span: t.newSpanID(), Sampled: true},
		remote.Trace.String(), remote.Span)
	if t.roots != nil {
		t.roots.Inc()
	}
	return ContextWithSpan(ctx, s), s
}

// Child starts a child of the span in ctx, or returns a nil span when the
// request is not being traced. It needs no tracer argument — the child
// records into its parent's tracer — so lower layers (shard plane, core
// hooks) stay decoupled from tracer plumbing.
func Child(ctx context.Context, name string) (context.Context, *Span) {
	p := SpanFromContext(ctx)
	if p == nil {
		return ctx, nil
	}
	s := newSpan(p.t, name, SpanContext{Trace: p.sc.Trace, Span: p.t.newSpanID(), Sampled: true},
		p.trace, p.sc.Span)
	if p.t.children != nil {
		p.t.children.Inc()
	}
	return ContextWithSpan(ctx, s), s
}

// Snapshot returns every retained completed span, oldest first.
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	out := make([]SpanRecord, 0, len(t.slots))
	for i := range t.slots {
		if rec := t.slots[i].Load(); rec != nil {
			out = append(out, *rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Collect returns the retained spans of one trace (hex ID), oldest first.
func (t *Tracer) Collect(trace string) []SpanRecord {
	all := t.Snapshot()
	out := all[:0:0]
	for _, rec := range all {
		if rec.Trace == trace {
			out = append(out, rec)
		}
	}
	return out
}

// SpanNode is one node of a reconstructed span tree.
type SpanNode struct {
	SpanRecord
	Children []*SpanNode `json:"children,omitempty"`
}

// BuildSpanTree links records into trees by parent span ID. Spans whose
// parent is absent (the root, or a parent evicted from the ring) become
// roots. Siblings are ordered by start time, then ring sequence.
func BuildSpanTree(recs []SpanRecord) []*SpanNode {
	nodes := make(map[string]*SpanNode, len(recs))
	for _, rec := range recs {
		nodes[rec.Span] = &SpanNode{SpanRecord: rec}
	}
	var roots []*SpanNode
	for _, rec := range recs {
		n := nodes[rec.Span]
		if p, ok := nodes[rec.Parent]; ok && rec.Parent != rec.Span {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	sortNodes := func(ns []*SpanNode) {
		sort.Slice(ns, func(i, j int) bool {
			if !ns[i].Start.Equal(ns[j].Start) {
				return ns[i].Start.Before(ns[j].Start)
			}
			return ns[i].Seq < ns[j].Seq
		})
	}
	sortNodes(roots)
	var walk func(*SpanNode)
	walk = func(n *SpanNode) {
		sortNodes(n.Children)
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return roots
}

// TraceDoc is the JSON document served for one trace ID.
type TraceDoc struct {
	Trace string       `json:"trace"`
	Spans []SpanRecord `json:"spans"`
	Tree  []*SpanNode  `json:"tree"`
}

// traceIndex lists the most recent distinct trace IDs in the ring.
type traceIndex struct {
	Traces []string `json:"traces"`
}

// Handler serves retained traces: GET /debug/trace?trace=<hex id> returns
// the trace's spans plus the reconstructed tree; without the parameter it
// lists recent distinct trace IDs (newest first).
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		id := req.URL.Query().Get("trace")
		if id == "" {
			all := t.Snapshot()
			seen := make(map[string]bool)
			var idx traceIndex
			for i := len(all) - 1; i >= 0 && len(idx.Traces) < 100; i-- {
				if !seen[all[i].Trace] {
					seen[all[i].Trace] = true
					idx.Traces = append(idx.Traces, all[i].Trace)
				}
			}
			_ = enc.Encode(idx)
			return
		}
		spans := t.Collect(id)
		if len(spans) == 0 {
			http.Error(w, `{"error":"trace not found"}`, http.StatusNotFound)
			return
		}
		_ = enc.Encode(TraceDoc{Trace: id, Spans: spans, Tree: BuildSpanTree(spans)})
	})
}
