package main

// The load generator: open-loop pacing over a fixed set of keep-alive
// connections, each request timed from the moment it was due, never
// from when it was sent.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection to the server, driven
// synchronously from the calling goroutine: a request is written and its
// response read with no transport goroutines in between, which keeps
// the generator's own CPU and wake-ups off the measured path.
type conn struct {
	addr string
	c    net.Conn
	rd   *bufio.Reader
	wr   *bufio.Writer
	buf  bytes.Buffer
}

func newConn(addr string) *conn { return &conn{addr: addr} }

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// do sends one request and returns the status and a copy of the body.
// A broken connection is redialled once for the next request.
func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
		if err != nil {
			return 0, nil, err
		}
		c.c, c.rd, c.wr = nc, bufio.NewReaderSize(nc, 64<<10), bufio.NewWriterSize(nc, 64<<10)
	}
	status, out, err := c.roundTrip(method, path, body)
	if err != nil {
		c.close()
	}
	return status, out, err
}

func (c *conn) roundTrip(method, path string, body []byte) (int, []byte, error) {
	if err := c.c.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		return 0, nil, err
	}
	fmt.Fprintf(c.wr, "%s %s HTTP/1.1\r\nHost: %s\r\n", method, path, c.addr)
	if body != nil {
		fmt.Fprintf(c.wr, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	c.wr.WriteString("\r\n")
	c.wr.Write(body)
	if err := c.wr.Flush(); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.rd, nil)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.Close {
		c.close()
	}
	return resp.StatusCode, bytes.Clone(c.buf.Bytes()), nil
}

// Sample is one request's timing and outcome. Times are offsets from
// the phase start.
type Sample struct {
	Item   int
	Due    time.Duration
	Sent   time.Duration
	Done   time.Duration
	Status int
	Body   []byte
	Err    error
	// Busy reports that the connection was still busy with an earlier
	// request at Due: Sent-Due is then queueing behind it, otherwise it
	// is the generator running late.
	Busy bool
}

// Latency is the request's latency from its due time.
func (s *Sample) Latency() time.Duration { return s.Done - s.Due }

// Request is the POST the schedule asks to send for item i.
type Request struct {
	Path string
	Body []byte
}

// OpenLoop describes one open-loop phase: n items due at rate per
// second, served in due order by whichever connection is free.
type OpenLoop struct {
	Rate  float64
	N     int
	Conns []*conn
	// Req returns the request for item i.
	Req func(i int) Request
	// MaxLag aborts the phase when a request would be sent this long
	// after its due time (a backlog that no longer drains); the rest of
	// the phase is not attempted.
	MaxLag time.Duration
	// Trace, if non-nil, records each request as a loadgen.request span
	// with loadgen.wait (due to send) and http.roundtrip (send to done)
	// children; ReqBase offsets the request ids.
	Trace   *Tracer
	ReqBase int
}

// PhaseResult holds a phase's samples in item order, the items actually
// attempted, and whether the phase aborted on backlog.
type PhaseResult struct {
	Samples []Sample
	Aborted bool
	// Steal is the host's steal time in each stealWindow of the phase.
	Steal []float64
}

// stealWindow is the resolution at which a phase records steal time.
const stealWindow = 250 * time.Millisecond

// sampleSteal reads the host's steal time every stealWindow until stop
// closes and returns each window's steal in seconds.
func sampleSteal(stop <-chan struct{}) []float64 {
	t := time.NewTicker(stealWindow)
	defer t.Stop()
	var out []float64
	prev := hostSteal()
	for {
		select {
		case <-t.C:
			s := hostSteal()
			out, prev = append(out, s-prev), s
		case <-stop:
			return append(out, hostSteal()-prev)
		}
	}
}

// Run executes the phase and returns once every sent request finished.
func (ol *OpenLoop) Run(ctx context.Context) *PhaseResult {
	res := &PhaseResult{Samples: make([]Sample, ol.N)}
	period := float64(time.Second) / ol.Rate
	var next atomic.Int64
	var aborted atomic.Bool
	var wg sync.WaitGroup
	stop, steal := make(chan struct{}), make(chan []float64, 1)
	go func() { steal <- sampleSteal(stop) }()
	start := time.Now()
	for _, c := range ol.Conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for ctx.Err() == nil && !aborted.Load() {
				i := int(next.Add(1) - 1)
				if i >= ol.N {
					return
				}
				due := time.Duration(float64(i) * period)
				free := time.Since(start)
				if free < due {
					time.Sleep(due - free)
				}
				sent := time.Since(start)
				if ol.MaxLag > 0 && sent-due > ol.MaxLag {
					aborted.Store(true)
					return
				}
				r := ol.Req(i)
				status, body, err := c.do(http.MethodPost, r.Path, r.Body)
				done := time.Since(start)
				res.Samples[i] = Sample{
					Item: i, Due: due, Sent: sent, Done: done,
					Status: status, Body: body, Err: err, Busy: free > due,
				}
				if t := ol.Trace; t != nil {
					req := ol.ReqBase + i
					root := t.Record("loadgen.request", 0, req, start, due, done)
					t.Record("loadgen.wait", root, req, start, due, sent)
					t.Record("http.roundtrip", root, req, start, sent, done)
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	res.Steal = <-steal
	if aborted.Load() || ctx.Err() != nil {
		res.Aborted = true
		// Keep only the items that were sent.
		sent := res.Samples[:0]
		for _, s := range res.Samples {
			if s.Done > 0 {
				sent = append(sent, s)
			}
		}
		res.Samples = sent
	}
	return res
}

// Outcome tallies a set of samples after checking.
type Outcome struct {
	Attempted int
	Failed    int
	// Lat holds the latencies of the successful requests, in ms; Kind
	// and Due the request kind and due time of each.
	Lat  []float64
	Kind []int
	Due  []time.Duration
	// steal is the phase's steal time per stealWindow.
	steal []float64
	// Late and Queue hold the due-to-send waits in ms, split by whether
	// the connection was free (generator lateness) or busy (queueing).
	Late, Queue []float64
	FirstErr    error
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Tally checks every sample of the phase with check and folds it into
// the outcome; kind names each item's request kind.
// A request fails on a transport error, a non-200 status (429
// included) or an answer check rejects; a failed request carries no
// latency sample.
func (o *Outcome) Tally(res *PhaseResult, kind func(item int) int, check func(s *Sample) error) {
	o.steal = res.Steal
	for i := range res.Samples {
		s := &res.Samples[i]
		o.Attempted++
		if s.Busy {
			o.Queue = append(o.Queue, ms(s.Sent-s.Due))
		} else {
			o.Late = append(o.Late, ms(s.Sent-s.Due))
		}
		err := s.Err
		if err == nil && s.Status != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", s.Status, s.Body)
		}
		if err == nil {
			err = check(s)
		}
		if err != nil {
			o.Failed++
			if o.FirstErr == nil {
				o.FirstErr = fmt.Errorf("item %d: %w", s.Item, err)
			}
			continue
		}
		o.Lat = append(o.Lat, ms(s.Latency()))
		o.Kind = append(o.Kind, kind(s.Item))
		o.Due = append(o.Due, s.Due)
	}
}

// StealAdjusted returns each successful request's latency scaled by the
// share of CPU time the host's vCPUs kept in the request's steal
// window: 1 - steal / (window × vCPUs). On a shared virtual machine the
// hypervisor's steal slows everything by about that share, and it moves
// with the neighbours' load from one minute to the next; the adjusted
// latency is the latency per unit of CPU the system actually had.
func (o *Outcome) StealAdjusted() []float64 {
	out := make([]float64, len(o.Lat))
	for i, due := range o.Due {
		out[i] = o.Lat[i] * (1 - stealShare(o.steal, due))
	}
	return out
}

// maxStealShare caps the adjustment, so a window the hypervisor took
// almost entirely cannot scale a latency towards zero.
const maxStealShare = 0.5

// stealShare is the share of vCPU time stolen in the window holding t.
func stealShare(steal []float64, t time.Duration) float64 {
	if len(steal) == 0 {
		return 0
	}
	w := min(int(t/stealWindow), len(steal)-1)
	return min(steal[w]/(stealWindow.Seconds()*float64(runtime.NumCPU())), maxStealShare)
}

// KindLat returns the latencies of the requests of one kind.
func (o *Outcome) KindLat(kind int) []float64 {
	var out []float64
	for i, k := range o.Kind {
		if k == kind {
			out = append(out, o.Lat[i])
		}
	}
	return out
}
