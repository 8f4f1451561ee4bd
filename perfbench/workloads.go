package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"stencilmart/internal/gen"
	"stencilmart/internal/gpu"
	"stencilmart/internal/serve"
	"stencilmart/internal/stencil"
)

type modelSet int

const (
	treeModel modelSet = iota // GBDT classifiers + GBRegressor
	nnModel                   // ConvNet classifiers + ConvMLP regressor
)

type trafficKind int

const (
	repeatTraffic   trafficKind = iota // a small fixed set of classic shapes
	distinctTraffic                    // a unique generated stencil per request
)

// workload is one named input set. Every workload runs the same offline
// path (collect, train, checkpoint) and then serves one of its
// checkpoints, so it reports every end-to-end metric; the workloads differ
// in what the serving half exercises.
type workload struct {
	name, why string
	serve     modelSet
	lane      serve.Lane // "" rides the server's default (f64)
	traffic   trafficKind
	// lowRPS and highRPS are the open-loop rates of the low and high
	// phases, fixed here and never re-derived from the code under test, so
	// a change that moves capacity shows as latency at the same offered
	// load. high is about 60-65% of the 2-connection closed-loop capacity
	// of the code the benchmark was written against. low sends one request
	// every 10 ms, over twice the unloaded latency of either checkpoint, so
	// arrivals (evenly spaced) never overlap and a fixed wait is pure
	// latency; that is 10% of serve-repeat's capacity and 30% of
	// serve-distinct's, whose 10% would need 30 s for a 1000-sample p99.
	lowRPS, highRPS float64
}

var workloads = []workload{
	{
		name:  "serve-repeat",
		why:   "tree checkpoint, f64 lane, 12 classic shapes on 4 GPUs: dedup and sim memo hit, so admission, the batch window, HTTP and JSON dominate",
		serve: treeModel, traffic: repeatTraffic,
		lowRPS: 100, highRPS: 650,
	},
	{
		name:  "serve-distinct",
		why:   "network checkpoint, f32 lane, a unique stencil per request: dedup and memo miss, so cold tuning and f32 GEMM scoring dominate",
		serve: nnModel, lane: serve.LaneF32, traffic: distinctTraffic,
		lowRPS: 100, highRPS: 200,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// classicShapes is the serve-repeat request set: star, box and cross in
// 2-D and 3-D at orders 1 and 2.
func classicShapes() []stencil.Stencil {
	var out []stencil.Stencil
	for _, f := range []func(int, int) stencil.Stencil{stencil.Star, stencil.Box, stencil.Cross} {
		for _, dims := range []int{2, 3} {
			for order := 1; order <= 2; order++ {
				out = append(out, f(dims, order))
			}
		}
	}
	return out
}

// probe is one (stencil, GPU) request and its JSON body.
type probe struct {
	gpu  string
	st   stencil.Stencil
	body []byte
}

func newProbe(gpuName string, s stencil.Stencil, named bool) (probe, error) {
	req := serve.PredictRequest{GPU: gpuName}
	if named {
		req.Stencil = s.Name
	} else {
		req.Name, req.Dims = s.Name, s.Dims
		for _, p := range s.Points {
			req.Points = append(req.Points, []int{p.Dx, p.Dy, p.Dz})
		}
	}
	body, err := json.Marshal(req)
	return probe{gpu: gpuName, st: s, body: body}, err
}

// cycle is an endless stream over a fixed set of named stencils on every
// catalog GPU, in a seeded order.
type cycle struct {
	probes []probe
	order  []int
}

func newCycle(stencils []stencil.Stencil, seed int64) (*cycle, error) {
	c := &cycle{}
	for _, s := range stencils {
		for _, a := range gpu.Catalog() {
			p, err := newProbe(a.Name, s, true)
			if err != nil {
				return nil, err
			}
			c.probes = append(c.probes, p)
		}
	}
	c.order = rand.New(rand.NewSource(seed)).Perm(len(c.probes))
	return c, nil
}

func (c *cycle) key(i int) int           { return c.order[i%len(c.order)] }
func (c *cycle) at(i int) ([]byte, bool) { return c.probes[c.key(i)].body, true }
func (c *cycle) probeAt(i int) probe     { return c.probes[c.key(i)] }
func (c *cycle) reserve(int) error       { return nil }
func (d *distinct) probeAt(i int) probe  { return d.probes[i] }
func (d *distinct) at(i int) ([]byte, bool) {
	if i >= len(d.probes) {
		return nil, false
	}
	return d.probes[i].body, true
}

// distinct is a stream of unique generated stencils, 2-D and 3-D
// alternating, on rotating GPUs. It grows only through reserve, which
// runPhases calls between phases, so generation never runs while a phase
// is timed.
type distinct struct {
	g2, g3 *gen.Generator
	seen   map[string]bool
	probes []probe
}

func newDistinct(seed int64) (*distinct, error) {
	g2, err := gen.New(gen.Options{Dims: 2, MaxOrder: stencil.MaxOrder}, seed)
	if err != nil {
		return nil, err
	}
	g3, err := gen.New(gen.Options{Dims: 3, MaxOrder: stencil.MaxOrder}, seed+1)
	if err != nil {
		return nil, err
	}
	return &distinct{g2: g2, g3: g3, seen: make(map[string]bool)}, nil
}

// reserve generates stencils until the stream holds n. A repeated access
// pattern is redrawn, with the same bounded retries as gen's Corpus.
func (d *distinct) reserve(n int) error {
	archs := gpu.Catalog()
	for i := len(d.probes); i < n; i++ {
		g := d.g2
		if i%2 == 1 {
			g = d.g3
		}
		s := g.Next()
		for retry := 0; d.seen[patternOf(s)] && retry < 64; retry++ {
			s = g.Next()
		}
		d.seen[patternOf(s)] = true
		p, err := newProbe(archs[i%len(archs)].Name, s, false)
		if err != nil {
			return err
		}
		d.probes = append(d.probes, p)
	}
	return nil
}
