package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"time"

	"stencilmart/internal/core"
	"stencilmart/internal/serve"
	"stencilmart/internal/serve/registry"
)

const (
	// setupReps is how many times set-up runs per workload; set-up
	// metrics report the median.
	setupReps = 3
	// warmup is the closed-loop burst before the measured phases: long
	// enough to touch every key of a cycled stream and to grow the
	// server's arenas, pools and connections to their working size.
	warmup = time.Second
	// lateBoundMs is the generator lateness (p99, ms) beyond which an
	// open-loop phase is invalid. Below it the generator waited at most
	// about one scheduler time slice for a CPU the server was using;
	// beyond it the schedule, not the server, would set the latency.
	lateBoundMs   = 10.0
	phaseAttempts = 5
	// closedCeilingRPS is how many requests per second a closed-loop
	// phase reserves from a finite stream, about twice serve-distinct's
	// capacity; the phase ends early if the server outruns it. The cycled
	// serve-repeat stream is endless.
	closedCeilingRPS = 600
)

// Phase lengths: each open-loop phase takes its share of --seconds but
// at least openSamples requests, enough for a p99 with minBeyond samples
// beyond it; the sat phase gets the rest, at least minSat.
const (
	lowShare    = 0.5
	highShare   = 0.2
	openSamples = 1050
	minSat      = 2 * time.Second
)

// phaseDurations splits the measured time across low, high and sat.
func phaseDurations(w workload, seconds float64) (low, high, sat time.Duration, err error) {
	total := time.Duration(seconds * float64(time.Second))
	open := func(share, rps float64) time.Duration {
		return max(time.Duration(share*float64(total)), time.Duration(openSamples/rps*float64(time.Second)))
	}
	low, high = open(lowShare, w.lowRPS), open(highShare, w.highRPS)
	if sat = total - low - high; sat < minSat {
		return 0, 0, 0, fmt.Errorf("--seconds %g leaves %v for the sat phase after low (%v) and high (%v); need %v", seconds, sat, low, high, minSat)
	}
	return low, high, sat, nil
}

// cliOptions are the serve command's flag defaults, so the benchmark
// measures the configuration that ships.
func cliOptions() serve.Options {
	return serve.Options{
		Timeout:          serve.DefaultTimeout,
		MaxInFlight:      serve.DefaultMaxInFlight,
		BatchWindow:      serve.DefaultBatchWindow,
		BatchSize:        serve.DefaultBatchSize,
		Lane:             serve.LaneF64,
		BreakerThreshold: serve.DefaultBreakerThreshold,
		BreakerCooldown:  serve.DefaultBreakerCooldown,
	}
}

// liveServer is the /predict server behind a real loopback listener.
type liveServer struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

// startServer loads the checkpoint, publishes it and serves it, returning
// once /healthz answers. The returned durations are the whole set-up and
// the publish step.
func startServer(ckpt string, tr *tracer) (*liveServer, time.Duration, time.Duration, error) {
	start := time.Now()
	var fw *core.Framework
	var err error
	tr.timed("core.LoadFrameworkFile", 0, func() { fw, err = core.LoadFrameworkFile(ckpt) })
	if err != nil {
		return nil, 0, 0, err
	}
	reg := registry.New()
	publish := tr.timed("registry.Publish", 0, func() { _, err = reg.Publish(fw) })
	if err != nil {
		return nil, 0, 0, err
	}
	srv, err := serve.NewWithRegistry(reg, cliOptions())
	if err != nil {
		return nil, 0, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, 0, err
	}
	l := &liveServer{
		srv:  srv,
		hs:   &http.Server{Handler: tr.handler(srv.Handler()), ReadHeaderTimeout: 5 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { l.done <- l.hs.Serve(ln) }()
	if err := l.get("/healthz", nil); err != nil {
		l.stop()
		return nil, 0, 0, err
	}
	return l, time.Since(start), publish, nil
}

// get fetches path over a connection of its own and decodes JSON into v
// when v is non-nil.
func (l *liveServer) get(path string, v any) error {
	tp := &http.Transport{DisableKeepAlives: true}
	defer tp.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tp, Timeout: 10 * time.Second}).Get(l.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if v != nil {
		return json.NewDecoder(resp.Body).Decode(v)
	}
	return nil
}

func (l *liveServer) stats() (serve.StatsResponse, error) {
	var st serve.StatsResponse
	return st, l.get("/statsz", &st)
}

// stop shuts the listener down, waits for Serve to return and drains the
// coalescer.
func (l *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	l.srv.Close()
	return err
}

// setUp starts the server setupReps times, keeping the last one, and
// records the median set-up and publish times.
func setUp(ckpt string, tr *tracer, r *run) (*liveServer, float64, error) {
	var setups, publishes []float64
	var l *liveServer
	for i := 0; i < setupReps; i++ {
		if l != nil {
			if err := l.stop(); err != nil {
				return nil, 0, err
			}
			// A served process loads its checkpoint once: collect the
			// previous load's garbage so it inflates neither the next
			// load's time nor the peak RSS.
			runtime.GC()
		}
		var setup, publish time.Duration
		var err error
		if l, setup, publish, err = startServer(ckpt, tr); err != nil {
			return nil, 0, err
		}
		setups = append(setups, setup.Seconds())
		publishes = append(publishes, ms(publish))
	}
	r.set("registry.publish_ms", median(publishes))
	return l, median(setups), nil
}

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// peak-RSS counter, so VmHWM afterwards covers only what follows.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's VmHWM.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	var kb float64
	for _, line := range strings.Split(string(b), "\n") {
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// gcSnapshot reads the runtime's GC cycle count and total GC pause time.
type gcSnapshot struct {
	cycles  uint64
	pauseMs float64
}

func readGC() gcSnapshot {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/sched/pauses/total/gc:seconds"}}
	metrics.Read(s)
	var g gcSnapshot
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.cycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		g.pauseMs = histSum(s[1].Value.Float64Histogram()) * 1e3
	}
	return g
}

// histSum estimates the total of a runtime histogram from its bucket
// midpoints (an open-ended bucket counts at its finite edge).
func histSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		v := (lo + hi) / 2
		if math.IsInf(lo, -1) {
			v = hi
		} else if math.IsInf(hi, 1) {
			v = lo
		}
		sum += float64(c) * v
	}
	return sum
}
