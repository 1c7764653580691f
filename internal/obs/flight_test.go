package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestJournalRecordAndSnapshot(t *testing.T) {
	r := NewRecorder(0)
	j := r.Journal("requests", 8)
	for i := 0; i < 12; i++ {
		j.Record("req", "", Int("i", i))
	}
	evs := j.Snapshot()
	if len(evs) != 8 {
		t.Fatalf("ring kept %d events, want 8", len(evs))
	}
	// Oldest first, and only the last 8 survive (i = 4..11).
	if evs[0].Attrs[0].Value() != "4" || evs[7].Attrs[0].Value() != "11" {
		t.Fatalf("window = %v .. %v", evs[0].Attrs, evs[7].Attrs)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatal("events not seq-ordered")
		}
	}
}

func TestJournalSnapshotOutlivesOverwrite(t *testing.T) {
	j := NewRecorder(0).Journal("epoch", 2)
	j.Record("short", "", Int("i", 1), Int("j", 2))
	j.Record("long", "", Int("a", 1), Int("b", 2), Int("c", 3), Int("d", 4), Int("e", 5))
	evs := j.Snapshot()
	for i := 0; i < 4; i++ {
		j.Record("later", "", Int("i", 9), Int("j", 9), Int("k", 9), Int("l", 9), Int("m", 9))
	}
	if got := evs[0].Attrs[0].String() + " " + evs[0].Attrs[1].String(); got != "i=1 j=2" {
		t.Fatalf("short event attrs = %s after the ring wrapped", got)
	}
	if len(evs[1].Attrs) != 5 || evs[1].Attrs[4].String() != "e=5" {
		t.Fatalf("long event attrs = %v after the ring wrapped", evs[1].Attrs)
	}
}

func TestRecorderGlobalSequence(t *testing.T) {
	r := NewRecorder(16)
	a := r.Journal("a", 0)
	b := r.Journal("b", 0)
	a.Record("x", "")
	b.Record("y", "")
	a.Record("z", "")
	ae, be := a.Snapshot(), b.Snapshot()
	if !(ae[0].Seq < be[0].Seq && be[0].Seq < ae[1].Seq) {
		t.Fatalf("cross-journal sequence broken: a=%v b=%v", ae, be)
	}
	if got := r.Journal("a", 0); got != a {
		t.Fatal("Journal not idempotent")
	}
}

func TestNilRecorderAndJournalSafe(t *testing.T) {
	var r *Recorder
	j := r.Journal("x", 0)
	if j != nil {
		t.Fatal("nil recorder returned a journal")
	}
	j.Record("kind", "trace") // must not panic
	if j.Snapshot() != nil || j.Name() != "" {
		t.Fatal("nil journal leaked data")
	}
	r.Dump("reason")
	r.SetDumpWriter(&bytes.Buffer{})
	if d := r.Snapshot("x"); len(d.Journals) != 0 {
		t.Fatal("nil recorder snapshot non-empty")
	}
}

func TestFlightDumpAndHandler(t *testing.T) {
	r := NewRecorder(0)
	r.Journal("admission", 0).Record("shed", "cafebabe", Str("component", "lag_spread"))
	r.Journal("epoch", 0).Record("bump", "", Uint("epoch", 9))

	var buf bytes.Buffer
	r.SetDumpWriter(&buf)
	r.Dump("test-shed")
	out := buf.String()
	if !strings.Contains(out, "flight recorder dump (test-shed)") ||
		!strings.Contains(out, "cafebabe") || !strings.Contains(out, "lag_spread") {
		t.Fatalf("dump output missing fields:\n%s", out)
	}

	rr := httptest.NewRecorder()
	r.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flight", nil))
	var dump FlightDump
	if err := json.Unmarshal(rr.Body.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Journals["admission"]) != 1 || dump.Journals["admission"][0].Trace != "cafebabe" {
		t.Fatalf("handler dump = %+v", dump)
	}
	if len(dump.Journals["epoch"]) != 1 || dump.Journals["epoch"][0].Kind != "bump" {
		t.Fatalf("epoch journal = %+v", dump.Journals["epoch"])
	}
}

// Concurrent writers across journals plus dumps under load: the race
// detector is the assertion, alongside basic snapshot sanity.
func TestRecorderConcurrentDumpUnderLoad(t *testing.T) {
	r := NewRecorder(64)
	reqs := r.Journal("requests", 0)
	adm := r.Journal("admission", 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if i%2 == 0 {
					reqs.Record("req", "t", Int("w", w), Int("i", i))
				} else {
					adm.Record("transition", "", Int("w", w))
				}
			}
		}(w)
	}
	done := make(chan struct{})
	var rg sync.WaitGroup
	for d := 0; d < 4; d++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-done:
					return
				default:
					dump := r.Snapshot("load")
					for _, evs := range dump.Journals {
						for i := 1; i < len(evs); i++ {
							if evs[i].Seq <= evs[i-1].Seq {
								t.Error("dump not seq-ordered")
								return
							}
						}
					}
					var buf bytes.Buffer
					_ = r.WriteJSON(&buf, "load")
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	rg.Wait()
	if got := len(reqs.Snapshot()); got != 64 {
		t.Fatalf("requests ring has %d events, want 64", got)
	}
}
