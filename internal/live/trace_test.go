package live

import (
	"bytes"
	"encoding/gob"
	"testing"
	"time"

	"diacap/internal/obs"
)

// TestTracedOpJournaledAtServers issues one traced operation and checks
// that every server's execution lands in the flight recorder's ops
// journal under the originating trace id, while untraced ops stay out.
func TestTracedOpJournaledAtServers(t *testing.T) {
	in, a, off := liveInstance(t, 6, 10, 2)
	fl := obs.NewRecorder(0)
	cluster, err := StartCluster(ClusterConfig{
		Instance:          in,
		Assignment:        a,
		Delta:             off.D,
		Offsets:           off,
		LatenessTolerance: 35,
		Flight:            fl,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	const tp = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	const wantTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	cluster.Client(0).Issue(1) // untraced: must not be journaled
	cluster.Client(0).IssueTraced(2, tp)

	// Every server executes the op once its simulation time reaches
	// issue + δ; poll the journal until all of them have reported.
	deadline := time.Now().Add(10 * time.Second)
	var events []obs.FlightEvent
	for {
		events = fl.Journal(JournalOps, 0).Snapshot()
		if len(events) >= in.NumServers() || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(events) != in.NumServers() {
		t.Fatalf("ops journal has %d events, want one per server (%d): %+v",
			len(events), in.NumServers(), events)
	}
	seen := map[string]bool{}
	for _, e := range events {
		if e.Kind != "execute" {
			t.Fatalf("journal kind = %q, want execute", e.Kind)
		}
		if e.Trace != wantTrace {
			t.Fatalf("journal trace = %q, want %q", e.Trace, wantTrace)
		}
		attrs := map[string]string{}
		for _, at := range e.Attrs {
			attrs[at.Key] = at.Value()
		}
		if attrs["op"] != "2" || attrs["client"] != "0" {
			t.Fatalf("journal attrs: %v, want op=2 client=0", e.Attrs)
		}
		seen[attrs["server"]] = true
	}
	if len(seen) != in.NumServers() {
		t.Fatalf("traced execution reported by %d distinct servers, want %d", len(seen), in.NumServers())
	}
}

// legacyOpMsg is the pre-tracing wire shape of OpMsg, frozen here to pin
// gob compatibility in both directions.
type legacyOpMsg struct {
	OpID     int
	ClientID int
	IssueSim float64
}

// TestOpMsgGobBackwardCompat pins the wire contract of the TraceParent
// field: an old peer's OpMsg decodes into the new struct (zero trace),
// and a new traced OpMsg decodes at an old peer, which simply drops the
// unknown field.
func TestOpMsgGobBackwardCompat(t *testing.T) {
	// Old encoder → new decoder.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(legacyOpMsg{OpID: 7, ClientID: 3, IssueSim: 12.5}); err != nil {
		t.Fatal(err)
	}
	var got OpMsg
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatalf("new peer cannot decode legacy OpMsg: %v", err)
	}
	if got.OpID != 7 || got.ClientID != 3 || got.IssueSim != 12.5 || got.TraceParent != "" {
		t.Fatalf("decoded legacy op: %+v", got)
	}

	// New traced encoder → old decoder.
	buf.Reset()
	traced := OpMsg{OpID: 8, ClientID: 1, IssueSim: 4.25,
		TraceParent: "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"}
	if err := gob.NewEncoder(&buf).Encode(traced); err != nil {
		t.Fatal(err)
	}
	var old legacyOpMsg
	if err := gob.NewDecoder(&buf).Decode(&old); err != nil {
		t.Fatalf("old peer cannot decode traced OpMsg: %v", err)
	}
	if old.OpID != 8 || old.ClientID != 1 || old.IssueSim != 4.25 {
		t.Fatalf("decoded traced op at old peer: %+v", old)
	}

	// And the untraced new struct stays byte-compatible with the legacy
	// encoding: gob omits zero-valued fields entirely.
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(OpMsg{OpID: 9, ClientID: 2, IssueSim: 1}); err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := gob.NewEncoder(&buf2).Encode(legacyOpMsg{OpID: 9, ClientID: 2, IssueSim: 1}); err != nil {
		t.Fatal(err)
	}
	// The type definitions differ (field count), but the value sections
	// must carry identical field deltas; a cheap proxy is that decoding
	// each into the other's shape round-trips exactly.
	var viaNew legacyOpMsg
	if err := gob.NewDecoder(&buf).Decode(&viaNew); err != nil {
		t.Fatal(err)
	}
	if viaNew != (legacyOpMsg{OpID: 9, ClientID: 2, IssueSim: 1}) {
		t.Fatalf("untraced round-trip: %+v", viaNew)
	}
}
