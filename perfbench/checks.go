package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"stencilmart/internal/core"
	"stencilmart/internal/serve"
)

// Lane tolerances of DESIGN.md §11: the f32 lane may differ from f64 only
// on decisions within laneTieEps of a top-2 tie, by laneProbaTol per class
// probability, and by laneRelTol relative on predicted seconds.
const (
	laneTieEps   = 1e-6
	laneProbaTol = 2e-3
	laneRelTol   = 5e-3
)

// checkServe verifies every measured 200 response against an independently
// loaded copy of the served checkpoint: byte-equal on the f64 lane, within
// the lane contract on f32. Each mismatch counts as a failed request. It
// returns the reference outcome of each stream index for the replay.
func checkServe(ckpt string, w workload, reqs probeStream, phases []*phase, r *run) (func(int) core.ServeOutcome, error) {
	var refAt func(int) core.ServeOutcome
	switch s := reqs.(type) {
	case *cycle:
		outs, err := referenceOutcomes(ckpt, serveRequests(s.probes))
		if err != nil {
			return nil, err
		}
		refAt = func(seq int) core.ServeOutcome { return outs[s.key(seq)] }
	default:
		var seqs []int
		for _, p := range phases {
			for _, smp := range p.samples {
				seqs = append(seqs, smp.seq)
			}
		}
		probes := make([]probe, len(seqs))
		for i, seq := range seqs {
			probes[i] = reqs.probeAt(seq)
		}
		outs, err := referenceOutcomes(ckpt, serveRequests(probes))
		if err != nil {
			return nil, err
		}
		bySeq := make(map[int]core.ServeOutcome, len(seqs))
		for i, seq := range seqs {
			bySeq[seq] = outs[i]
		}
		refAt = func(seq int) core.ServeOutcome { return bySeq[seq] }
	}

	checked, bad := 0, 0
	var first error
	for _, p := range phases {
		for _, s := range p.samples {
			if !s.ok() {
				continue // already counted as failed
			}
			checked++
			var err error
			if w.lane == serve.LaneF32 {
				err = laneAgrees(refAt(s.seq), s.body)
			} else {
				err = sameBody(refAt(s.seq), s.body)
			}
			if err != nil {
				bad++
				if first == nil {
					first = fmt.Errorf("request %d: %w", s.seq, err)
				}
			}
		}
	}
	r.failed += bad
	r.check(fmt.Sprintf("%d responses match the %s reference (%d mismatched)", checked, laneName(w.lane), bad), first)
	return refAt, nil
}

// referenceOutcomes scores reqs through the f64 batch pipeline on
// independently loaded copies of the checkpoint, one per CPU, each taking
// a contiguous share (a framework is not safe for concurrent batches).
func referenceOutcomes(ckpt string, reqs []core.ServeRequest) ([]core.ServeOutcome, error) {
	parts := runtime.NumCPU()
	out := make([]core.ServeOutcome, len(reqs))
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		lo, hi := p*len(reqs)/parts, (p+1)*len(reqs)/parts
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			fw, err := core.LoadFrameworkFile(ckpt)
			if err != nil {
				errs[p] = err
				return
			}
			copy(out[lo:hi], servePredictAll(fw, reqs[lo:hi]))
		}(p)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

func laneName(l serve.Lane) string {
	if l == "" {
		return string(serve.LaneF64)
	}
	return string(l)
}

func serveRequests(probes []probe) []core.ServeRequest {
	out := make([]core.ServeRequest, len(probes))
	for i, p := range probes {
		out[i] = core.ServeRequest{GPU: p.gpu, Stencil: p.st}
	}
	return out
}

// sameBody requires the response to be byte-equal to the reference.
func sameBody(ref core.ServeOutcome, body []byte) error {
	want, err := outcomeJSON(ref)
	if err != nil {
		return fmt.Errorf("reference failed: %w", err)
	}
	if !bytes.Equal(want, body) {
		return fmt.Errorf("body differs from reference:\n got %s\nwant %s", body, want)
	}
	return nil
}

// laneAgrees checks an f32-lane response against its f64 reference under
// the lane contract.
func laneAgrees(ref core.ServeOutcome, body []byte) error {
	if ref.Err != nil {
		return fmt.Errorf("reference failed: %w", ref.Err)
	}
	var got core.ServePrediction
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	rp := ref.Prediction
	if rp.Stencil != got.Stencil || rp.GPU != got.GPU || len(rp.Proba) != len(got.Proba) {
		return fmt.Errorf("identity drift: %s/%s vs %s/%s", rp.Stencil, rp.GPU, got.Stencil, got.GPU)
	}
	for k := range rp.Proba {
		if math.Abs(rp.Proba[k]-got.Proba[k]) > laneProbaTol {
			return fmt.Errorf("class %d proba f64 %g vs f32 %g", k, rp.Proba[k], got.Proba[k])
		}
	}
	if top2Gap(rp.Proba) >= laneTieEps && rp.Class != got.Class {
		return fmt.Errorf("decision drift: f64 class %d vs f32 class %d", rp.Class, got.Class)
	}
	if !sameOrder(rp.Proba, got.Proba) {
		return nil // a sub-leading tie may legitimately tune another OC
	}
	if rp.OC != got.OC || rp.Params != got.Params || rp.TunedSeconds != got.TunedSeconds {
		return fmt.Errorf("tuning drift: %s %+v %g vs %s %+v %g", rp.OC, rp.Params, rp.TunedSeconds, got.OC, got.Params, got.TunedSeconds)
	}
	if len(rp.PredictedSeconds) != len(got.PredictedSeconds) {
		return fmt.Errorf("predicted_seconds width %d vs %d", len(rp.PredictedSeconds), len(got.PredictedSeconds))
	}
	for i, want := range rp.PredictedSeconds {
		if math.Abs(got.PredictedSeconds[i]-want) > laneRelTol*math.Max(math.Abs(want), 1e-12) {
			return fmt.Errorf("%s predicted %g (f64) vs %g (f32)", rp.ArchNames[i], want, got.PredictedSeconds[i])
		}
	}
	return nil
}

func top2Gap(p []float64) float64 {
	best, second := math.Inf(-1), math.Inf(-1)
	for _, v := range p {
		switch {
		case v > best:
			best, second = v, best
		case v > second:
			second = v
		}
	}
	return best - second
}

// classOrder lists classes by descending probability, the order the
// serving path tunes their representatives in.
func classOrder(p []float64) []int {
	order := make([]int, len(p))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return p[order[a]] > p[order[b]] })
	return order
}

func sameOrder(a, b []float64) bool {
	oa, ob := classOrder(a), classOrder(b)
	for i := range oa {
		if oa[i] != ob[i] {
			return false
		}
	}
	return true
}
