package main

// The server role: the benchmark re-executes its own binary with the
// "serve" argument to host the service in a process of its own, so the
// generator's allocations and GC never land on the server's heap. The
// service is assembled as cmd/capserver assembles it — service.New and
// Server.Serve over a shard.New plane, with a metrics registry and the
// flight recorder on and the tracer off — but over the benchmark's
// seeded universe instead of capserver's fixed 400-client demo.

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"diacap/internal/obs"
	"diacap/internal/service"
	"diacap/internal/shard"
)

// buildPlane builds the plane over u and joins the set-up clients.
func buildPlane(sz Sizes, u *Universe, reg *obs.Registry, flight *obs.Recorder) (*shard.Plane, error) {
	plane, err := shard.New(shard.Options{
		Shards:  sz.Shards,
		Servers: u.Servers,
		Clients: u.Clients,
		Metrics: reg,
		Flight:  flight,
	})
	if err != nil {
		return nil, fmt.Errorf("building plane: %w", err)
	}
	if err := populate(plane, u); err != nil {
		return nil, err
	}
	return plane, nil
}

func populate(plane *shard.Plane, u *Universe) error {
	ctx := context.Background()
	for _, c := range u.Joined {
		if _, err := plane.Join(ctx, c); err != nil {
			return fmt.Errorf("joining client %d: %w", c, err)
		}
	}
	return nil
}

// newService assembles the service the way capserver does. plane may be
// nil (the planning workload runs without one).
func newService(plane *shard.Plane, reg *obs.Registry, flight *obs.Recorder) *service.Server {
	return service.New(service.Options{
		RequestTimeout: 30 * time.Second,
		Metrics:        reg,
		Logger:         obs.Discard(),
		Flight:         flight,
		Shard:          plane,
	})
}

func newRegistry(withPlane bool) *obs.Registry {
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	service.PreregisterMetrics(reg)
	if withPlane {
		shard.Preregister(reg)
	}
	return reg
}

// serveMain is the server process: build, populate, collect, listen,
// announce the address on stdout, serve until SIGTERM.
func serveMain(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "universe seed")
	withPlane := fs.Bool("plane", true, "build and front the shard plane")
	tiny := fs.Bool("tiny", false, "use the test sizes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sz := Full
	if *tiny {
		sz = Tiny
	}
	reg := newRegistry(*withPlane)
	flight := obs.NewRecorder(0)
	flight.SetDumpWriter(os.Stderr)
	var plane *shard.Plane
	if *withPlane {
		u, err := NewUniverse(sz, *seed)
		if err != nil {
			return err
		}
		if plane, err = buildPlane(sz, u, reg, flight); err != nil {
			return err
		}
	}
	svc := newService(plane, reg, flight)
	// Set-up garbage is collected before the first request, so timed
	// phases do not pay for it.
	runtime.GC()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Printf("READY %s gomaxprocs=%d\n", ln.Addr(), runtime.GOMAXPROCS(0))
	return svc.Serve(ctx, ln)
}

// serverProc is a running server process.
type serverProc struct {
	cmd        *exec.Cmd
	addr       string
	gomaxprocs string
	// Setup is the time from process start until /healthz answered 200.
	Setup time.Duration
	done  chan error
}

// startServer starts the server process and waits until it answers
// /healthz. The process is killed if the benchmark process dies.
func startServer(ctx context.Context, seed int64, withPlane, tiny bool) (*serverProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"serve", fmt.Sprintf("-seed=%d", seed), fmt.Sprintf("-plane=%v", withPlane)}
	if tiny {
		args = append(args, "-tiny")
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", serverProcs))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	sp := &serverProc{cmd: cmd, done: make(chan error, 1)}
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		if sc.Scan() {
			ready <- sc.Text()
		}
		close(ready)
		// Drain so the server never blocks on a full pipe.
		_, _ = io.Copy(io.Discard, out)
		sp.done <- cmd.Wait()
	}()
	var line string
	select {
	case l, ok := <-ready:
		if !ok {
			sp.Stop()
			return nil, errors.New("server exited before announcing its address")
		}
		line = l
	case <-ctx.Done():
		sp.Stop()
		return nil, ctx.Err()
	}
	f := strings.Fields(line)
	if len(f) != 3 || f[0] != "READY" {
		sp.Stop()
		return nil, fmt.Errorf("server announced %q", line)
	}
	sp.addr, sp.gomaxprocs = f[1], strings.TrimPrefix(f[2], "gomaxprocs=")
	c := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := c.Get(sp.URL("/healthz"))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if ctx.Err() != nil {
			sp.Stop()
			return nil, ctx.Err()
		}
		time.Sleep(time.Millisecond)
	}
	sp.Setup = time.Since(start)
	return sp, nil
}

// URL returns the server URL of path.
func (sp *serverProc) URL(path string) string { return "http://" + sp.addr + path }

// Pid returns the server's process id.
func (sp *serverProc) Pid() int { return sp.cmd.Process.Pid }

// Stop asks the server to drain and waits for it to exit, killing it
// if it does not within ten seconds.
func (sp *serverProc) Stop() {
	_ = sp.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-sp.done:
	case <-time.After(10 * time.Second):
		_ = sp.cmd.Process.Kill()
		<-sp.done
	}
}
