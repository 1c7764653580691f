// Command diatrace pretty-prints the tracing and flight-recorder
// documents a capserver exposes: span trees from /debug/trace and
// journal dumps from /debug/flight.
//
// Usage:
//
//	diatrace -addr http://127.0.0.1:8080             # list recent traces
//	diatrace -addr http://127.0.0.1:8080 -trace <id> # one span tree
//	diatrace -addr http://127.0.0.1:8080 -flight     # flight journals
//	diatrace -file dump.json -flight                 # offline (e.g. a
//	                                                 # stderr dump cut
//	                                                 # from server logs)
//
// A span tree renders one line per span — name, duration, attributes —
// indented by parentage, with in-span events (individual evaluator
// deltas, hysteresis suppressions) nested beneath, so per-layer latency
// attribution for a request reads top to bottom.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"diacap/internal/obs"
)

func main() {
	var (
		addr   = flag.String("addr", "http://127.0.0.1:8080", "capserver base URL")
		trace  = flag.String("trace", "", "trace id to print (empty = list recent traces)")
		flight = flag.Bool("flight", false, "print the flight-recorder journals instead of traces")
		file   = flag.String("file", "", "read the JSON document from this file instead of the server")
	)
	flag.Parse()

	var (
		raw []byte
		err error
	)
	switch {
	case *file != "":
		raw, err = os.ReadFile(*file)
	case *flight:
		raw, err = fetch(*addr + "/debug/flight")
	case *trace != "":
		raw, err = fetch(*addr + "/debug/trace?trace=" + *trace)
	default:
		raw, err = fetch(*addr + "/debug/trace")
	}
	if err != nil {
		fatal(err)
	}

	switch {
	case *flight:
		var dump obs.FlightDump
		if err := json.Unmarshal(raw, &dump); err != nil {
			fatal(fmt.Errorf("decode flight dump: %w", err))
		}
		renderFlight(os.Stdout, dump)
	case *trace != "":
		var doc obs.TraceDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			fatal(fmt.Errorf("decode trace: %w", err))
		}
		renderTrace(os.Stdout, doc)
	default:
		var idx struct {
			Traces []string `json:"traces"`
		}
		if err := json.Unmarshal(raw, &idx); err != nil {
			fatal(fmt.Errorf("decode trace index: %w", err))
		}
		if len(idx.Traces) == 0 {
			fmt.Println("no traces retained (is -trace-sample > 0?)")
			return
		}
		for _, id := range idx.Traces {
			fmt.Println(id)
		}
	}
}

func fetch(url string) ([]byte, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// renderTrace prints one span tree, depth-indented, with per-span
// attributes and nested events.
func renderTrace(w io.Writer, doc obs.TraceDoc) {
	fmt.Fprintf(w, "trace %s: %d spans\n", doc.Trace, len(doc.Spans))
	var walk func(n *obs.SpanNode, depth int)
	walk = func(n *obs.SpanNode, depth int) {
		pad := strings.Repeat("  ", depth)
		fmt.Fprintf(w, "%s%s  %.3fms%s\n", pad, n.Name, n.Duration, attrSuffix(n.Attrs))
		for _, e := range n.Events {
			fmt.Fprintf(w, "%s  · +%.3fms %s%s\n", pad, e.OffsetMs, e.Name, attrSuffix(e.Attrs))
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, root := range doc.Tree {
		walk(root, 1)
	}
}

// renderFlight prints every journal of a dump, oldest events first.
func renderFlight(w io.Writer, dump obs.FlightDump) {
	fmt.Fprintf(w, "flight dump (%s) taken %s\n", dump.Reason, dump.TakenAt.Format(time.RFC3339))
	names := make([]string, 0, len(dump.Journals))
	for name := range dump.Journals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		events := dump.Journals[name]
		fmt.Fprintf(w, "journal %s: %d events\n", name, len(events))
		for _, e := range events {
			line := fmt.Sprintf("  %s %s", e.Wall.Format("15:04:05.000"), e.Kind)
			if e.Trace != "" {
				line += " trace=" + e.Trace
			}
			fmt.Fprintln(w, line+attrSuffix(e.Attrs))
		}
	}
}

func attrSuffix(attrs []obs.Attr) string {
	if len(attrs) == 0 {
		return ""
	}
	parts := make([]string, len(attrs))
	for i, a := range attrs {
		parts[i] = a.String()
	}
	return "  " + strings.Join(parts, " ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "diatrace:", err)
	os.Exit(1)
}
