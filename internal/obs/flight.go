package obs

// Flight recorder: always-on, fixed-memory journals of recent control-
// plane events — requests, admission transitions, failovers, epoch bumps,
// hysteresis-suppressed moves — kept in preallocated ring buffers so the
// last N events of each category survive to the moment something goes
// wrong. The recorder is dumped automatically on admission-shed entry,
// server kill, or SIGQUIT, and served at /debug/flight; events carry the
// trace ID of the request that caused them, cross-linking into the span
// ring.
//
// A Record call allocates nothing (for up to four attrs): under the
// recorder's one write mutex it bumps the global sequence and fills the
// journal's next slot in place, so the lock and unlock are its only
// atomic operations. A concurrent Snapshot (dump-under-load) holds that
// mutex only while copying one journal's ring. Memory is bounded by
// capacity × journals.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// FlightEvent is one recorded event. Seq is a recorder-global sequence
// number, so events from different journals interleave in true order.
type FlightEvent struct {
	Seq   uint64    `json:"seq"`
	Wall  time.Time `json:"wall"`
	Kind  string    `json:"kind"`
	Trace string    `json:"trace,omitempty"`
	Attrs []Attr    `json:"attrs,omitempty"`
	// attrBuf backs Attrs for short lists inside a journal slot.
	attrBuf [4]Attr
}

// Journal is one fixed-size event category ring. A nil *Journal is valid
// and drops everything, so callers wire journals unconditionally.
type Journal struct {
	name string
	mask uint64
	r    *Recorder

	// Guarded by r.wmu.
	n     uint64 // events recorded so far; slot n&mask is next
	slots []FlightEvent
}

// Name returns the journal's category name ("" for nil).
func (j *Journal) Name() string {
	if j == nil {
		return ""
	}
	return j.name
}

// Record publishes one event stamped now. Safe for any number of
// concurrent writers; the oldest event is evicted when the ring is full.
func (j *Journal) Record(kind, trace string, attrs ...Attr) {
	if j == nil {
		return
	}
	j.RecordAt(time.Now(), kind, trace, attrs...)
}

// RecordAt is Record with the caller's wall-clock stamp, for a hot-path
// caller that has just read the clock anyway and should not pay for a
// second read.
func (j *Journal) RecordAt(wall time.Time, kind, trace string, attrs ...Attr) {
	if j == nil {
		return
	}
	j.r.wmu.Lock()
	j.r.seq++
	ev := &j.slots[j.n&j.mask]
	j.n++
	ev.Seq, ev.Wall, ev.Kind, ev.Trace = j.r.seq, wall, kind, trace
	// Copied, never retained: the caller's variadic array stays on its
	// stack.
	if len(attrs) > len(ev.attrBuf) {
		ev.Attrs = append([]Attr(nil), attrs...)
	} else {
		ev.Attrs = append(ev.attrBuf[:0], attrs...)
	}
	j.r.wmu.Unlock()
}

// Snapshot returns the retained events, oldest first. It is safe to call
// while writers are active: the ring is copied under the recorder's
// write mutex, and each copy's short attr list is re-pointed away from
// the ring, so later writes cannot reach it.
func (j *Journal) Snapshot() []FlightEvent {
	if j == nil {
		return nil
	}
	j.r.wmu.Lock()
	n := min(j.n, uint64(len(j.slots)))
	out := make([]FlightEvent, n)
	for i := range out {
		out[i] = j.slots[(j.n-n+uint64(i))&j.mask]
	}
	j.r.wmu.Unlock()
	for i := range out {
		ev := &out[i]
		if len(ev.Attrs) <= len(ev.attrBuf) {
			ev.Attrs = append([]Attr(nil), ev.attrBuf[:len(ev.Attrs)]...)
		}
		ev.attrBuf = [4]Attr{}
	}
	return out
}

// Recorder owns the per-category journals and the shared sequence
// counter. A nil *Recorder is valid: Journal returns nil and dumps no-op.
type Recorder struct {
	defCap int

	// wmu serializes every journal write and snapshot copy; seq is the
	// recorder-global sequence it stamps.
	wmu sync.Mutex
	seq uint64

	mu       sync.Mutex
	journals map[string]*Journal
	order    []string

	dumpMu sync.Mutex
	dumpTo io.Writer
}

// NewRecorder builds a recorder whose journals default to the given
// capacity (rounded up to a power of two; 0 means 256 events each).
func NewRecorder(defaultCapacity int) *Recorder {
	return &Recorder{
		defCap:   ceilPow2(defaultCapacity, 256),
		journals: make(map[string]*Journal),
	}
}

// Journal returns the named journal, creating it on first use with the
// given capacity (0 = recorder default; rounded up to a power of two).
// Get-or-create takes a lock — resolve journal handles once at
// construction, like metric instruments, never per event.
func (r *Recorder) Journal(name string, capacity int) *Journal {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if j, ok := r.journals[name]; ok {
		return j
	}
	c := r.defCap
	if capacity > 0 {
		c = ceilPow2(capacity, r.defCap)
	}
	j := &Journal{
		name:  name,
		mask:  uint64(c - 1),
		r:     r,
		slots: make([]FlightEvent, c),
	}
	r.journals[name] = j
	r.order = append(r.order, name)
	return j
}

// SetDumpWriter installs the destination for automatic dumps (nil
// disables them). Typically os.Stderr in a server process.
func (r *Recorder) SetDumpWriter(w io.Writer) {
	if r == nil {
		return
	}
	r.dumpMu.Lock()
	r.dumpTo = w
	r.dumpMu.Unlock()
}

// FlightDump is a point-in-time capture of every journal.
type FlightDump struct {
	Reason   string                   `json:"reason"`
	TakenAt  time.Time                `json:"takenAt"`
	Journals map[string][]FlightEvent `json:"journals"`
}

// Snapshot captures every journal, oldest events first.
func (r *Recorder) Snapshot(reason string) FlightDump {
	dump := FlightDump{Reason: reason, TakenAt: time.Now(), Journals: map[string][]FlightEvent{}}
	if r == nil {
		return dump
	}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	r.mu.Unlock()
	for _, name := range names {
		r.mu.Lock()
		j := r.journals[name]
		r.mu.Unlock()
		dump.Journals[name] = j.Snapshot()
	}
	return dump
}

// WriteJSON writes a dump document to w.
func (r *Recorder) WriteJSON(w io.Writer, reason string) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot(reason))
}

// Dump writes a dump to the configured writer, if any. Concurrent dump
// triggers (shed entry racing SIGQUIT) serialize so documents do not
// interleave.
func (r *Recorder) Dump(reason string) {
	if r == nil {
		return
	}
	r.dumpMu.Lock()
	w := r.dumpTo
	if w != nil {
		fmt.Fprintf(w, "--- flight recorder dump (%s) ---\n", reason)
		_ = r.WriteJSON(w, reason)
	}
	r.dumpMu.Unlock()
}

// Handler serves the recorder as JSON (GET /debug/flight).
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w, "http")
	})
}
