package assign

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"diacap/internal/core"
	"diacap/internal/obs"
)

// fingerprint renders an assignment and the span its run recorded into
// one string, so two runs can be compared byte for byte. Floats render
// at shortest round-trip precision: identical bits produce identical
// text, and any bit of divergence shows up in the diff. Event offsets
// are wall-clock time and stay out.
func fingerprint(a core.Assignment, rec obs.SpanRecord) string {
	var b strings.Builder
	fmt.Fprintf(&b, "assignment=%v\n", []int(a))
	fmt.Fprintf(&b, "attrs=%v\n", rec.Attrs)
	for i, ev := range rec.Events {
		fmt.Fprintf(&b, "%d: %s %v\n", i, ev.Name, ev.Attrs)
	}
	return b.String()
}

// tracedRun executes one algorithm run recording into a sampled span.
func tracedRun(t *testing.T, name string, seed int64, in *core.Instance) string {
	t.Helper()
	alg, err := ByNameSeeded(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var a core.Assignment
	rec := tracedRecord(t, func(sp *obs.Span) {
		alg, _ = WithSpan(alg, sp)
		if a, err = alg.Assign(in, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	})
	return fingerprint(a, rec)
}

// TestSeededRunsAreByteIdentical is the determinism regression gate: the
// same seed must yield a byte-identical assignment and trace across
// repeated runs and across GOMAXPROCS settings. The paper's comparisons
// (Fig. 8's heuristic ranking, DG's monotone trajectory) assume exactly
// this reproducibility.
func TestSeededRunsAreByteIdentical(t *testing.T) {
	const seed = 42
	in := randomInstance(seed, 60, 3, 6)
	for _, name := range []string{"Greedy", "Distributed-Greedy", "Anneal"} {
		t.Run(name, func(t *testing.T) {
			want := tracedRun(t, name, seed, in)
			if again := tracedRun(t, name, seed, in); again != want {
				t.Fatalf("two runs with seed %d diverge:\n--- first\n%s--- second\n%s", seed, want, again)
			}
			for _, procs := range []int{1, 8} {
				prev := runtime.GOMAXPROCS(procs)
				got := tracedRun(t, name, seed, in)
				runtime.GOMAXPROCS(prev)
				if got != want {
					t.Fatalf("GOMAXPROCS=%d diverges from baseline:\n--- baseline\n%s--- got\n%s", procs, want, got)
				}
			}
		})
	}
}

// TestDifferentSeedsDiverge guards the other direction: if the seed is
// actually consulted, different seeds should (on a comfortably large
// instance) produce different randomized runs.
func TestDifferentSeedsDiverge(t *testing.T) {
	in := randomInstance(7, 60, 3, 6)
	a := tracedRun(t, "Anneal", 1, in)
	b := tracedRun(t, "Anneal", 2, in)
	if a == b {
		t.Error("Anneal with seeds 1 and 2 produced identical traces; the seed is not reaching the generator")
	}
}
