package main

// Process and environment probes: server CPU time and peak RSS from
// /proc, metric families scraped from the server's /metrics, and the
// environment record printed with every run.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// procCPU returns the process's user plus system CPU time.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields restart after its ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	// utime and stime are fields 14 and 15 of the full line, 12 and 13
	// after the name.
	if len(f) < 13 {
		return 0, fmt.Errorf("parsing /proc/%d/stat: %d fields", pid, len(f))
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing /proc/%d/stat: %w", pid, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * clockTick, nil
}

// procPeakRSS returns the process's peak resident set (VmHWM) in MB.
func procPeakRSS(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// scrape sums every sample of each metric family in a Prometheus text
// exposition, optionally restricted to samples carrying label.
func scrape(text []byte, family, label string) float64 {
	var sum float64
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		if label != "" && !strings.Contains(rest, label) {
			continue
		}
		f := strings.Fields(rest[strings.LastIndexByte(rest, '}')+1:])
		if len(f) == 0 {
			continue
		}
		if v, err := strconv.ParseFloat(f[0], 64); err == nil {
			sum += v
		}
	}
	return sum
}

// Metric families read from the server's /metrics.
const (
	famHeap      = "go_heap_alloc_bytes"
	famGC        = "go_gc_cycles_total"
	famAdmission = "diacap_admission_decisions_total"
	famRejected  = "diacap_shard_rejected_total"
)

// Env is the environment record printed with every run.
type Env struct {
	GoVersion        string  `json:"goVersion"`
	NumCPU           int     `json:"nproc"`
	GOMAXPROCS       int     `json:"gomaxprocsGenerator"`
	ServerGOMAXPROCS string  `json:"gomaxprocsServer"`
	CPUModel         string  `json:"cpuModel"`
	LoadAvg1         float64 `json:"loadAvg1"`
}

func readEnv() Env {
	e := Env{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			// The record is informational: an unparsable load reads 0.
			e.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return e
}

// hostSteal returns the host's cumulative steal time (CPU time the
// hypervisor gave to other guests) from /proc/stat, in seconds.
func hostSteal() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	// Informational, like the environment record: unparsable reads 0.
	v, _ := strconv.ParseFloat(f[8], 64)
	return v * clockTick.Seconds()
}
