package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"diacap/internal/assign"
	"diacap/internal/core"
	"diacap/internal/dia"
	"diacap/internal/latency"
	"diacap/internal/obs"
)

func TestParseRepair(t *testing.T) {
	if mode, err := parseRepair("none"); err != nil || mode != dia.RepairNone {
		t.Fatalf("none: %v, %v", mode, err)
	}
	if mode, err := parseRepair("timewarp"); err != nil || mode != dia.RepairTimewarp {
		t.Fatalf("timewarp: %v, %v", mode, err)
	}
	if mode, err := parseRepair("tss"); err != nil || mode != dia.RepairTSS {
		t.Fatalf("tss: %v, %v", mode, err)
	}
	if _, err := parseRepair("magic"); err == nil {
		t.Fatal("unknown policy should fail")
	}
}

func TestLoadMatrixPresets(t *testing.T) {
	m, err := loadMatrix("50", 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 50 {
		t.Fatalf("nodes = %d", m.Len())
	}
	if _, err := loadMatrix("bogus", 1); err == nil {
		t.Fatal("bad preset should fail")
	}
	if _, err := loadMatrix("2", 1); err == nil {
		t.Fatal("too-small preset should fail")
	}
}

func TestAssignTracedLogsStepsAtDebug(t *testing.T) {
	clients := make([]int, 10)
	for i := range clients {
		clients[i] = 2 + i
	}
	in, err := core.NewInstanceTrusted(latency.ScaledLike(12, 1), []int{0, 1}, clients)
	if err != nil {
		t.Fatal(err)
	}
	want, err := assign.Greedy{}.Assign(in, nil)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	logger, err := obs.NewLogger(&buf, "debug")
	if err != nil {
		t.Fatal(err)
	}
	got, err := assignTraced(assign.Greedy{}, in, true, logger)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("traced assignment %v, untraced %v", got, want)
	}
	out := buf.String()
	for _, w := range []string{"algo step", "algorithm=Greedy", "event=greedy.batch", "step=1", "deltaN="} {
		if !strings.Contains(out, w) {
			t.Errorf("log output missing %q:\n%s", w, out)
		}
	}

	buf.Reset()
	info, err := obs.NewLogger(&buf, "info")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := assignTraced(assign.Greedy{}, in, true, info); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("info-level logger emitted step output: %q", buf.String())
	}
}
