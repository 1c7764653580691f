// Package obs is the observability substrate of the repository: a
// dependency-free metrics core (atomic counters, gauges, and fixed-bucket
// histograms behind a Registry with Prometheus text-format and JSON
// exposition), structured logging built on log/slog, and sampled spans
// with W3C trace-context propagation. Assignment algorithms record their
// steps as events on a span, so their convergence behavior — the paper's
// central quantitative story — is observable in a running system rather
// than only in offline experiment logs.
//
// Everything here is plain standard library: the serving layers
// (internal/service, internal/live, internal/scale) instrument themselves
// against this package, and cmd/capserver / cmd/diasim expose the result
// over HTTP (-metrics-addr) for a Prometheus scraper or a curl.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one key="value" pair attached to a metric series. Series
// identity is the metric name plus the sorted label set.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricKind discriminates the three instrument families.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing integer, safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down, safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
	fn   func() float64 // non-nil for function gauges
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by d (negative to decrease).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (evaluating the function for function
// gauges).
func (g *Gauge) Value() float64 {
	if g.fn != nil {
		return g.fn()
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets, Prometheus-style:
// bucket i counts observations ≤ Upper[i], with an implicit +Inf bucket,
// plus a running sum and total count. Observe is lock-free. Each bucket
// additionally retains the latest exemplar (value + trace ID) recorded
// through ObserveExemplar, so a slow bucket links to a concrete trace.
type Histogram struct {
	upper  []float64
	counts []atomic.Uint64 // len(upper)+1; last is the +Inf overflow
	ex     []atomic.Pointer[Exemplar]
	sum    atomic.Uint64 // float64 bits, CAS-updated
	count  atomic.Uint64
}

// Exemplar is the latest traced observation that landed in a bucket.
type Exemplar struct {
	Value float64   `json:"value"`
	Trace string    `json:"trace"`
	Wall  time.Time `json:"wall"`
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.observe(v)
}

// ObserveExemplar records one value and, when trace is non-empty, stamps
// the landing bucket's exemplar with it.
func (h *Histogram) ObserveExemplar(v float64, trace string) {
	i := h.observe(v)
	if trace != "" && i < len(h.ex) {
		h.ex[i].Store(&Exemplar{Value: v, Trace: trace, Wall: time.Now()})
	}
}

func (h *Histogram) observe(v float64) int {
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return i
		}
	}
}

// Exemplars returns the per-bucket exemplars, aligned with the buckets of
// Buckets (the final entry is the +Inf bucket); entries are nil for
// buckets that never saw a traced observation.
func (h *Histogram) Exemplars() []*Exemplar {
	out := make([]*Exemplar, len(h.ex))
	for i := range h.ex {
		out[i] = h.ex[i].Load()
	}
	return out
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Buckets returns the upper bounds and the cumulative counts per bucket
// (the +Inf bucket equals Count modulo concurrent observers).
func (h *Histogram) Buckets() (upper []float64, cumulative []uint64) {
	upper = h.upper
	cumulative = make([]uint64, len(h.counts))
	var run uint64
	for i := range h.counts {
		run += h.counts[i].Load()
		cumulative[i] = run
	}
	return upper, cumulative
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed
// distribution from the bucket counts, interpolating linearly within
// the containing bucket (the Prometheus histogram_quantile convention:
// the first bucket interpolates from zero, values in the +Inf overflow
// bucket report the last finite upper bound). It returns NaN when the
// histogram is empty. The estimate is bucket-resolution coarse — load
// reports pair it with bucket layouts shaped for their latency range.
func (h *Histogram) Quantile(q float64) float64 {
	upper, cum := h.Buckets()
	total := cum[len(cum)-1]
	if total == 0 || len(upper) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	for i, c := range cum {
		if c == 0 || float64(c) < rank {
			continue
		}
		if i >= len(upper) {
			// Overflow bucket: no finite upper bound to interpolate
			// toward; the last finite bound is the honest floor.
			return upper[len(upper)-1]
		}
		lo, loCount := 0.0, uint64(0)
		if i > 0 {
			lo, loCount = upper[i-1], cum[i-1]
		}
		width := float64(c - loCount)
		if width == 0 {
			return upper[i]
		}
		return lo + (upper[i]-lo)*(rank-float64(loCount))/width
	}
	return upper[len(upper)-1]
}

// LatencyMsBuckets is the default bucket layout for millisecond
// latencies, spanning sub-millisecond LAN paths to multi-second stalls.
var LatencyMsBuckets = []float64{0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// SecondsBuckets is the default bucket layout for durations in seconds
// (the Prometheus convention for request latencies).
var SecondsBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// ExponentialBuckets returns n bucket upper bounds starting at start and
// multiplying by factor (> 1) at each step.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: bad exponential buckets (start=%v factor=%v n=%d)", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// series is one labeled instrument inside a family.
type series struct {
	labels string // rendered, sorted: {a="x",b="y"} or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups the series of one metric name.
type family struct {
	name    string
	help    string
	kind    metricKind
	buckets []float64
	series  map[string]*series
	order   []string // insertion order for stable exposition
}

// Registry holds instruments and renders them. Instrument lookups are
// get-or-create and idempotent: asking twice for the same name and label
// set returns the same instrument, so packages can re-register on every
// cluster or pipeline start without coordination. Registering the same
// name with a different kind panics — that is a programming error, not a
// runtime condition.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry used by the commands.
func Default() *Registry { return defaultRegistry }

// renderLabels serializes a label set in sorted-key order.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// getSeries resolves (or creates) the series for name+labels, checking
// kind consistency.
func (r *Registry) getSeries(name, help string, kind metricKind, buckets []float64, labels []Label) *series {
	key := renderLabels(labels)
	r.mu.RLock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			r.mu.RUnlock()
			panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, kind, f.kind))
		}
		if s, ok := f.series[key]; ok {
			r.mu.RUnlock()
			return s
		}
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, buckets: buckets, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, kind, f.kind))
	}
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key}
		switch kind {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			h := &Histogram{upper: f.buckets}
			h.counts = make([]atomic.Uint64, len(f.buckets)+1)
			h.ex = make([]atomic.Pointer[Exemplar], len(f.buckets)+1)
			s.h = h
		}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter returns the counter for name+labels, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.getSeries(name, help, kindCounter, nil, labels).c
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.getSeries(name, help, kindGauge, nil, labels).g
}

// GaugeFunc registers a gauge whose value is computed at exposition time
// (e.g. runtime statistics). Re-registering replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.getSeries(name, help, kindGauge, nil, labels)
	r.mu.Lock()
	s.g.fn = fn
	r.mu.Unlock()
}

// Histogram returns the histogram for name+labels, creating it on first
// use with the given bucket upper bounds (nil = LatencyMsBuckets). The
// bucket layout is fixed by the first registration of the family; later
// calls reuse it.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if buckets == nil {
		buckets = LatencyMsBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not strictly increasing", name))
		}
	}
	return r.getSeries(name, help, kindHistogram, buckets, labels).h
}

// visit walks families and series in insertion order under the read lock.
func (r *Registry) visit(fn func(f *family, s *series)) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, name := range r.order {
		f := r.families[name]
		for _, key := range f.order {
			fn(f, f.series[key])
		}
	}
}
