package core

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"stencilmart/internal/gpu"
	"stencilmart/internal/ml"
	"stencilmart/internal/opt"
	"stencilmart/internal/sim"
	"stencilmart/internal/stencil"
	"stencilmart/internal/tuner"
)

// This file is the serial predict-cheaply path over a trained framework:
// classify, tune the predicted class's representative OC, regress its
// time on every catalog GPU, and derive the rent verdict. ServePredict is
// the one-request oracle the batch pipeline (servebatch.go) is held
// bitwise equal to.

// PredictClassTrained scores an arbitrary stencil with the checkpointed
// classifier for the named GPU, returning the merged class and the
// per-class probabilities. No training runs. Callers sharing a framework
// across goroutines must serialize calls (nn models reuse forward
// scratch).
func (f *Framework) PredictClassTrained(archName string, s stencil.Stencil) (int, []float64, error) {
	tr, err := f.requireTrained()
	if err != nil {
		return 0, nil, err
	}
	if err := s.Validate(); err != nil {
		return 0, nil, err
	}
	cls, err := tr.classifierFor(archName, s.Dims)
	if err != nil {
		return 0, nil, err
	}
	row := classEncode(tr.ClassifierKind, s)
	proba := ml.PredictProbaAll(cls, [][]float64{row})[0]
	return ml.ArgMax(proba), proba, nil
}

// PredictStencilSeconds predicts execution times for one (stencil, OC,
// params) triple on every given architecture in a single batched forward
// pass — the cross-GPU query behind the rent advisor. Rows build directly
// from the stencil, so unseen stencils (not in the training dataset) are
// first-class inputs.
func (t *TrainedRegressor) PredictStencilSeconds(s stencil.Stencil, oc opt.Opt, p opt.Params, archs []gpu.Arch) []float64 {
	rows := t.stencilRows(s, oc, p, archs)
	vals := ml.PredictValueAll(t.model, rows)
	t.invertSeconds(vals)
	return vals
}

// stencilRows encodes and scales the regressor inputs for one (stencil,
// OC, params) triple on every given architecture.
func (t *TrainedRegressor) stencilRows(s stencil.Stencil, oc opt.Opt, p opt.Params, archs []gpu.Arch) [][]float64 {
	rows := make([][]float64, len(archs))
	for i, a := range archs {
		rows[i] = t.xScale.apply(regRow(t.kind, s, oc, p, a))
	}
	return rows
}

// invertSeconds converts raw model outputs to seconds in place, undoing
// target scaling and the log2 transform.
func (t *TrainedRegressor) invertSeconds(vals []float64) {
	for i, v := range vals {
		if t.kind.usesScaling() {
			v = t.yScale.invert(v)
		}
		vals[i] = regInvert(v)
	}
}

// RentAdvice is the cross-GPU verdict for one prediction: which catalog
// GPU the regressor expects to run the tuned kernel fastest, and which
// rentable GPU minimizes time x rental price (the Figs. 14-15 metrics).
type RentAdvice struct {
	// Target echoes the requested GPU and its predicted seconds.
	Target        string  `json:"target"`
	TargetSeconds float64 `json:"target_seconds"`
	// BestArch is the predicted-fastest GPU across the catalog.
	BestArch    string  `json:"best_arch"`
	BestSeconds float64 `json:"best_seconds"`
	// Speedup is TargetSeconds / BestSeconds (1 means the target already
	// wins).
	Speedup float64 `json:"speedup"`
	// BestCostArch minimizes seconds x $/hr among rentable GPUs; empty
	// when no catalog GPU has a rental price.
	BestCostArch string `json:"best_cost_arch,omitempty"`
	// BestCostValue is that minimal seconds x $/hr product.
	BestCostValue float64 `json:"best_cost_value,omitempty"`
	// Rent is the verdict: true when a different GPU than the target is
	// predicted to be faster.
	Rent bool `json:"rent"`
}

// ServePrediction is the one-shot inference result for an unseen stencil:
// everything the prediction service returns from a single request.
type ServePrediction struct {
	Stencil string    `json:"stencil"`
	GPU     string    `json:"gpu"`
	Class   int       `json:"class"`
	Proba   []float64 `json:"proba"`
	// OC is the representative optimization combination of the predicted
	// class (after crash fallback across classes).
	OC string `json:"oc"`
	// Params is the best parameter setting found for OC on the target GPU
	// under the configured search budget.
	Params opt.Params `json:"params"`
	// TunedSeconds is the simulated execution time of (OC, Params) on the
	// target GPU.
	TunedSeconds float64 `json:"tuned_seconds"`
	// ArchNames and PredictedSeconds are the regressor's cross-GPU times
	// for the tuned kernel, index-aligned.
	ArchNames        []string   `json:"arch_names"`
	PredictedSeconds []float64  `json:"predicted_seconds"`
	Advice           RentAdvice `json:"advice"`
}

// requestSeed derives a deterministic tuning seed from the request so
// identical requests tune identically (and hit the sim memo cache).
func requestSeed(base int64, archName string, s stencil.Stencil) int64 {
	h := fnv.New64a()
	io.WriteString(h, archName)
	io.WriteString(h, s.Name)
	for _, p := range s.Points {
		fmt.Fprintf(h, "|%d,%d,%d", p.Dx, p.Dy, p.Dz)
	}
	return base + int64(h.Sum64()&0x7fffffff)
}

// ServePredict runs the full predict-cheaply path against the trained
// models: classify the stencil, tune the predicted class's representative
// OC on the target GPU (falling back through lower-probability classes if
// every setting of a representative crashes), predict the tuned kernel's
// time on every catalog GPU in one batched regressor pass, and derive the
// rent-or-not verdict. Not safe for concurrent use on one framework — the
// serving layer serializes.
func (f *Framework) ServePredict(archName string, s stencil.Stencil) (*ServePrediction, error) {
	tr, err := f.requireTrained()
	if err != nil {
		return nil, err
	}
	_, arch, err := f.ArchByName(archName)
	if err != nil {
		return nil, err
	}
	class, proba, err := f.PredictClassTrained(archName, s)
	if err != nil {
		return nil, err
	}
	reg, ok := tr.Regressors[s.Dims]
	if !ok {
		return nil, fmt.Errorf("core: no trained %d-D regressor", s.Dims)
	}

	chosen, best, err := f.tuneForClass(archName, s, arch, proba)
	if err != nil {
		return nil, err
	}

	archs := f.Dataset.Archs
	times := reg.PredictStencilSeconds(s, chosen, best.Params, archs)
	names := make([]string, len(archs))
	for i, a := range archs {
		names[i] = a.Name
	}

	return &ServePrediction{
		Stencil:          s.Name,
		GPU:              archName,
		Class:            class,
		Proba:            proba,
		OC:               chosen.String(),
		Params:           best.Params,
		TunedSeconds:     best.Time,
		ArchNames:        names,
		PredictedSeconds: times,
		Advice:           rentAdvice(archName, archs, times),
	}, nil
}

// tuneForClass tunes the representative OC of the most probable class on
// the target GPU, falling back through the class order when every sampled
// setting of a representative crashes. The tuning seed derives from the
// request, so identical requests tune identically (and hit the sim memo
// cache) no matter which batch or goroutine carries them.
func (f *Framework) tuneForClass(archName string, s stencil.Stencil, arch gpu.Arch, proba []float64) (opt.Opt, tuner.Result, error) {
	w := sim.DefaultWorkload(s)
	seed := requestSeed(f.Cfg.Seed, archName, s)
	for _, c := range classOrder(proba) {
		oc := f.Grouping.RepOC(c)
		res, err := (tuner.Random{}).Tune(f.Model, w, oc, arch, f.Cfg.SamplesPerOC, seed)
		if err == nil {
			return oc, res, nil
		}
	}
	return 0, tuner.Result{}, fmt.Errorf("core: no runnable OC for %s on %s", s.Name, archName)
}

// rentAdvice derives the cross-GPU verdict from index-aligned predicted
// times.
func rentAdvice(target string, archs []gpu.Arch, times []float64) RentAdvice {
	adv := RentAdvice{Target: target, BestCostValue: math.Inf(1)}
	best := math.Inf(1)
	for i, a := range archs {
		if a.Name == target {
			adv.TargetSeconds = times[i]
		}
		if times[i] < best {
			best = times[i]
			adv.BestArch = a.Name
			adv.BestSeconds = times[i]
		}
		if a.HasRental() {
			if v := times[i] * a.RentalPerHour; v < adv.BestCostValue {
				adv.BestCostValue = v
				adv.BestCostArch = a.Name
			}
		}
	}
	if math.IsInf(adv.BestCostValue, 1) {
		adv.BestCostValue = 0
	}
	if adv.BestSeconds > 0 {
		adv.Speedup = adv.TargetSeconds / adv.BestSeconds
	}
	adv.Rent = adv.BestArch != "" && adv.BestArch != target
	return adv
}
