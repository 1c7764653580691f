package main

// The benchmark's metric schema. BENCHMARK.json at the repository root
// lists the same names, units and directions; metrics_test.go keeps the
// two in step, and every run checks that it reports exactly its set.

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// MetricDef names one metric.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the untraced run's metrics, reported by every workload.
// p50_ms is the workload's primary requests at the nominal load (reads
// on serve-read, writes on churn-mixed, planning requests on plan); d_ms
// is the plane's published D (serve-read after set-up, churn-mixed after
// the nominal tape) or the mean D of one planning cycle. README.md
// defines each per workload, and why tails, capacities and CPU per
// request are reported but not bounded.
var endToEnd = []MetricDef{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"d_ms", "ms", "lower"},
	{"server_peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, reported by every workload.
var perLayer = func() []MetricDef {
	var ds []MetricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			ds = append(ds, MetricDef{n, unit, better})
		}
	}
	perKind := func(base string, kinds []string) []string {
		var out []string
		for _, k := range kinds {
			out = append(out, base+"."+k)
		}
		return out
	}
	reads := readKindNames[:]
	add("us", "lower", perKind("service.read_handler_us", reads)...)
	add("us", "lower", perKind("service.read_codec_us", reads)...)
	add("us", "lower", "service.write_handler_us")
	add("ms", "lower", perKind("service.plan_handler_ms", planKindNames[:])...)
	add("ms", "lower", "service.plan_decode_ms.coords", "service.plan_decode_ms.matrix")
	add("count", "lower", "service.shed_total", "shard.rejected_total")
	add("ns", "lower", "shard.view_ns")
	add("us", "lower", perKind("shard.resolve_us", reads)...)
	add("us", "lower", perKind("shard.fill_us", reads)...)
	add("us", "lower", perKind("perfkit.nearest_us", reads)...)
	for _, op := range opNames {
		add("us", "lower", "shard."+op+"_us")
	}
	add("KB", "lower", "shard.write_alloc_kb_per_op")
	add("count", "lower", "shard.write_allocs_per_op")
	add("s", "lower", "shard.new_s", "shard.populate_s")
	add("ms", "lower", "latency.coords_to_matrix_ms")
	add("ms", "lower", "scale.place_servers_ms", "scale.assign_coords_ms", "scale.assign_coords_cap_ms")
	for _, k := range planKindNames[planGreedy:] {
		add("ms", "lower", "assign."+k+"_ms")
	}
	add("ms", "lower", "core.lower_bound_ms")
	add("us", "lower", "core.max_path_us", "core.offsets_us")
	add("us", "lower", "server.cpu_us_per_req")
	add("1/kreq", "lower", "server.gc_cycles_per_kreq")
	add("MB", "lower", "server.heap_mb_after_setup")
	add("ms", "lower", "loadgen.late_ms_p50", "loadgen.late_ms_p99", "loadgen.queue_ms_p99")
	add("us", "lower", "net.overhead_us")
	add("%", "lower", "trace.overhead_pct")
	return ds
}()

// unitOf returns a per-layer metric's unit.
func unitOf(name string) string {
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// checkMetricSet reports any metric missing from got, present but not
// in want, carrying the wrong unit, or not a finite number.
func checkMetricSet(got map[string]Metric, want []MetricDef) error {
	var bad []string
	seen := map[string]bool{}
	for _, d := range want {
		seen[d.Name] = true
		m, ok := got[d.Name]
		switch {
		case !ok:
			bad = append(bad, "missing "+d.Name)
		case m.Unit != d.Unit:
			bad = append(bad, fmt.Sprintf("%s in %q, want %q", d.Name, m.Unit, d.Unit))
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			bad = append(bad, fmt.Sprintf("%s is %v", d.Name, m.Value))
		}
	}
	for name := range got {
		if !seen[name] {
			bad = append(bad, "unexpected "+name)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("metric set: %s", strings.Join(bad, "; "))
	}
	return nil
}
