// Command perfbench is the repository's benchmark: it runs one named
// workload end to end in-process (generate, collect, train, checkpoint,
// serve /predict over loopback HTTP under open- and closed-loop load),
// checks every output, and prints the workload's metrics. With --trace 1
// it instead records spans around the calls into each module and prints
// the per-layer breakdown with a reconciliation against the end-to-end
// numbers. See README.md.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"stencilmart/internal/serve"
)

// defaultSeconds is run_seconds in BENCHMARK.json.
const defaultSeconds = 20

// run accumulates one invocation's metrics and correctness verdict.
type run struct {
	vals              map[string]float64
	attempted, failed int
	checksFailed      int
}

func (r *run) set(name string, v float64) { r.vals[name] = v }

// check prints a named output check and records a failure.
func (r *run) check(name string, err error) {
	if err != nil {
		r.checksFailed++
		fmt.Printf("check FAILED %s: %v\n", name, err)
		return
	}
	fmt.Printf("check ok     %s\n", name)
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	name := flag.String("workload", "", "workload name (serve-repeat, serve-distinct)")
	seed := flag.Int64("seed", 1, "workload seed: the corpus, held-out set and request streams derive from it")
	seconds := flag.Float64("seconds", defaultSeconds, "measured serve time (split across the low, high and sat phases)")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics; 0 = untraced end-to-end run")
	out := flag.String("out", ".bench_build/perfbench", "directory for scratch files and span dumps")
	spec := flag.Bool("spec", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if *spec {
		return writeSpec(os.Stdout, defaultSeconds)
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	if err := printMeta(w, *seed, *seconds, *trace, nproc); err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var tr *tracer
	if *trace == 1 {
		tr = &tracer{}
	}
	r := &run{vals: make(map[string]float64)}
	if err := runWorkload(w, *seed, *seconds, dir, nproc, tr, r); err != nil {
		return err
	}
	if tr != nil {
		path := filepath.Join(*out, "trace-"+w.name+".jsonl")
		if err := tr.write(path); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	}
	return printResult(r, tr != nil)
}

// runWorkload runs the offline path and then serves one of its
// checkpoints under load.
func runWorkload(w workload, seed int64, seconds float64, dir string, nproc int, tr *tracer, r *run) error {
	started := time.Now()
	off, err := runOffline(context.Background(), w, seed, dir, tr, r)
	if err != nil {
		return err
	}
	r.attempted += off.cells
	fmt.Printf("time offline path done at %.1fs\n", time.Since(started).Seconds())

	ckpt := off.treeCkpt
	if w.serve == nnModel {
		ckpt = off.nnCkpt
	}
	var reqs probeStream
	if w.traffic == repeatTraffic {
		reqs, err = newCycle(classicShapes(), seed)
	} else {
		reqs, err = newDistinct(seed)
	}
	if err != nil {
		return err
	}
	// peak_rss_mb covers set-up and serving, not the training that
	// produced the checkpoint.
	if err := resetPeakRSS(); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}

	l, setup, err := setUp(ckpt, tr, r)
	if err != nil {
		return err
	}
	r.set("setup_s", setup)
	query := ""
	if w.lane != "" {
		query = "?lane=" + string(w.lane)
	}
	d := newLoader(l.url, query, nproc, reqs, tr)
	fmt.Printf("time server set up at %.1fs\n", time.Since(started).Seconds())
	gc0 := readGC()
	phases, err := runPhases(l, d, reqs, w, seconds)
	gc1 := readGC()
	if err == nil && tr != nil {
		next := 0
		for _, p := range phases {
			for _, s := range p.samples {
				next = max(next, s.seq+1)
			}
		}
		err = measureOverhead(d, reqs, next, tr, r)
	}
	var st serve.StatsResponse
	if err == nil {
		st, err = l.stats()
	}
	d.close()
	if serr := l.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	memoMetrics(st, r)
	r.set("runtime.gc_cycles", float64(gc1.cycles-gc0.cycles))
	r.set("runtime.gc_pause_ms", gc1.pauseMs-gc0.pauseMs)
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", peak)
	if err := phaseMetrics(phases, r); err != nil {
		return err
	}

	fmt.Printf("time serve phases done at %.1fs\n", time.Since(started).Seconds())
	refAt, err := checkServe(ckpt, w, reqs, phases, r)
	if err != nil {
		return err
	}
	fmt.Printf("time output checks done at %.1fs\n", time.Since(started).Seconds())
	if tr != nil {
		if err := replayServe(ckpt, w, reqs, phases, refAt, tr, r); err != nil {
			return err
		}
		fmt.Printf("time serve replay done at %.1fs\n", time.Since(started).Seconds())
	}
	return nil
}

// printMeta records where and how the run happened.
func printMeta(w workload, seed int64, seconds float64, trace, nproc int) error {
	host, err := os.Hostname()
	if err != nil {
		return err
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	digest, err := sourceDigest(".")
	if err != nil {
		return err
	}
	meta := map[string]any{
		"workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
		"host": host, "nproc": nproc, "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit, "source_sha256": digest,
		"low_rps": w.lowRPS, "high_rps": w.highRPS, "conns": nproc,
	}
	b, err := json.Marshal(map[string]any{"meta": meta})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// sourceDigest hashes the Go sources and module files under root, which
// identifies the code under test when the checkout carries no commit.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16], err
}

// printResult prints every metric with its unit, then the result line:
// the end-to-end metrics, or with tracing the per-layer ones.
func printResult(r *run, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if v, ok := r.vals[m.Name]; ok {
				fmt.Printf("metric %-26s %14.6g %s\n", m.Name, v, m.Unit)
			}
		}
	}
	for _, m := range defs {
		v, ok := r.vals[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		metrics[m.Name] = value{v, m.Unit}
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.checksFailed == 0 && r.failed == 0, r.attempted, r.failed, metrics}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
