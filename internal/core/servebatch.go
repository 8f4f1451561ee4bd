package core

import (
	"context"
	"fmt"
	"strings"

	"stencilmart/internal/gpu"
	"stencilmart/internal/ml"
	"stencilmart/internal/opt"
	"stencilmart/internal/par"
	"stencilmart/internal/stencil"
	"stencilmart/internal/tuner"
)

// ServeRequest is one item of a batched serving call: the same inputs
// ServePredict takes positionally.
type ServeRequest struct {
	GPU     string
	Stencil stencil.Stencil
}

// ServeOutcome is one request's result slot in a batch: a prediction or
// an error, never both.
type ServeOutcome struct {
	Prediction *ServePrediction
	Err        error
}

// ServePredictBatch runs the classify -> tune -> regress -> rent pipeline
// of ServePredict over many requests at once, returning one outcome per
// request, index-aligned. Coalescing pays off twice. First, identical
// requests inside a batch collapse to one pipeline pass — the whole
// serving path is a deterministic function of (GPU, stencil), so
// duplicates (concurrent clients asking about the same hot stencil, the
// common case the serving tier batches for) share a single classify +
// tune + regress and receive the same prediction. Second, the surviving
// distinct requests group their model calls: classification batches per
// (GPU, dims) classifier and cross-GPU regression batches per dims, so
// per-call model overhead is paid once per group, while tuning
// (simulator-bound, concurrency-safe) runs across items in parallel.
// Because every batched model path scores rows independently and
// duplicates are exact, the outcomes are bitwise identical to calling
// ServePredict once per request — the serving tier's differential tests
// hold this invariant.
//
// The context carries the batch's deadline (the earliest deadline among
// the coalesced requests): each pipeline stage checks it at entry, and
// tuning — the simulator-bound stage — observes it mid-flight, so an
// expired batch fails its remaining items with the context error instead
// of burning simulator time nobody will wait for. A nil or
// never-expiring context reproduces the unbounded behavior exactly.
//
// Like ServePredict, the method is not safe for concurrent use on one
// framework (nn models reuse forward scratch); the serving layer
// serializes batch calls through a single lane.
func (f *Framework) ServePredictBatch(ctx context.Context, reqs []ServeRequest) []ServeOutcome {
	return f.serveBatch(ctx, reqs, func(tr *Trained) (scorer, error) { return &f64Scorer{tr: tr, archs: f.Dataset.Archs}, nil })
}

// ServePredictBatchF32 is ServePredictBatch on the float32 inference
// lane: the same pipeline, but classification and regression score
// through the compiled f32 models with every row and output buffer
// carved from the caller's arena. The scoring path proper — row encoding
// into arena scratch plus the compiled batch predictions — performs zero
// heap allocations once the arena and compiled-layer scratch are warm;
// the per-item probability and time vectors are deliberate heap copies
// because outcomes outlive the arena's next Reset (the serving tier
// marshals them after this call returns). Tuning is lane-independent
// (simulator-bound, float64) and shared with the reference lane.
//
// A nil arena gets a private one, trading the reuse away for
// convenience. Like the f64 lane, the method is not safe for concurrent
// use on one framework; the serving layer serializes batch calls
// through a single lane per arena.
func (f *Framework) ServePredictBatchF32(ctx context.Context, reqs []ServeRequest, arena *ServeArena) []ServeOutcome {
	return f.serveBatch(ctx, reqs, func(*Trained) (scorer, error) { return f.newF32Scorer(arena) })
}

// serveBatch is the one batch pipeline behind both lanes: admit, dedup,
// classify, tune, regress and assemble, with every model call going
// through the scorer newScorer builds once the trained set resolves.
func (f *Framework) serveBatch(ctx context.Context, reqs []ServeRequest, newScorer func(*Trained) (scorer, error)) []ServeOutcome {
	if ctx == nil {
		ctx = context.Background()
	}
	outs := make([]ServeOutcome, len(reqs))
	if len(reqs) == 0 {
		return outs
	}
	tr, err := f.requireTrained()
	var sc scorer
	if err == nil {
		sc, err = newScorer(tr)
	}
	if err != nil {
		for i := range outs {
			outs[i].Err = err
		}
		return outs
	}

	items := f.admitServeItems(tr, reqs, outs)

	// Collapse duplicates: the first item with a given (GPU, stencil)
	// identity is the primary that rides the pipeline; the rest copy its
	// outcome at the end. Items that already failed admission keep their
	// own (identical) errors.
	seen := make(map[string]*serveItem, len(items))
	var primaries []*serveItem
	var dups []*serveItem
	for _, it := range items {
		if it.out.Err != nil {
			continue
		}
		k := serveKey(it.req)
		if p, ok := seen[k]; ok {
			it.primary = p
			dups = append(dups, it)
			continue
		}
		seen[k] = it
		primaries = append(primaries, it)
	}

	if err := ctx.Err(); err != nil {
		failLive(primaries, err)
	} else {
		classifyServeItems(tr, sc, primaries)
		f.tuneServeItems(ctx, primaries)
		if err := ctx.Err(); err != nil {
			failLive(primaries, err)
		} else {
			for _, g := range groupBy(primaries, func(it *serveItem) int { return it.req.Stencil.Dims }) {
				sc.regress(g).run(g)
			}
		}
	}

	for _, it := range live(primaries) {
		outs[it.idx] = ServeOutcome{Prediction: it.assemble(f)}
	}
	for _, it := range dups {
		outs[it.idx] = outs[it.primary.idx]
	}
	return outs
}

// serveKey canonicalizes a request's full identity — target GPU plus the
// stencil's name, dimensionality, and exact point set — the inputs the
// serving pipeline is a deterministic function of.
func serveKey(r ServeRequest) string {
	var b strings.Builder
	b.WriteString(r.GPU)
	b.WriteByte(0)
	b.WriteString(r.Stencil.Name)
	fmt.Fprintf(&b, "\x00%d", r.Stencil.Dims)
	for _, p := range r.Stencil.Points {
		fmt.Fprintf(&b, "|%d,%d,%d", p.Dx, p.Dy, p.Dz)
	}
	return b.String()
}

// serveItem carries one request through the batch pipeline. A stage that
// fails an item records the error in its outcome slot and later stages
// skip it.
type serveItem struct {
	idx int
	req ServeRequest
	out *ServeOutcome

	// primary points at the first batchmate with the same (GPU, stencil)
	// identity; a non-nil primary means this item skips the pipeline and
	// copies the primary's outcome.
	primary *serveItem

	arch  gpu.Arch
	class int
	proba []float64
	oc    opt.Opt
	tuned tuner.Result
	// tunedDone marks that the tuning worker actually ran for this item;
	// after a context-cancelled tune pass it separates items with real
	// results from items the pool never dispatched.
	tunedDone bool
	times     []float64
}

func (it *serveItem) fail(err error) { it.out.Err = err }

// failLive records err on every item that has not already failed.
func failLive(items []*serveItem, err error) {
	for _, it := range live(items) {
		it.fail(err)
	}
}

// live filters the items that have not failed yet.
func live(items []*serveItem) []*serveItem {
	out := items[:0:0]
	for _, it := range items {
		if it.out.Err == nil {
			out = append(out, it)
		}
	}
	return out
}

// groupBy partitions the live items by key, groups in order of first
// appearance, so every batched model call covers one group.
func groupBy[K comparable](items []*serveItem, key func(*serveItem) K) [][]*serveItem {
	index := make(map[K]int)
	var groups [][]*serveItem
	for _, it := range live(items) {
		k := key(it)
		gi, ok := index[k]
		if !ok {
			gi = len(groups)
			index[k] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], it)
	}
	return groups
}

// guard runs fn, turning a panic into the error "core: <what> panicked:
// <value>" so a poisoned model call fails its requests, not the process.
func guard(what string, fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("core: %s panicked: %v", what, v)
		}
	}()
	return fn()
}

// admitServeItems resolves per-request lookups (GPU, stencil validity,
// classifier) in ServePredict's exact check order, so a request failing
// several ways reports the same error it would serially.
func (f *Framework) admitServeItems(tr *Trained, reqs []ServeRequest, outs []ServeOutcome) []*serveItem {
	items := make([]*serveItem, 0, len(reqs))
	for i, req := range reqs {
		it := &serveItem{idx: i, req: req, out: &outs[i]}
		items = append(items, it)
		_, arch, err := f.ArchByName(req.GPU)
		if err != nil {
			it.fail(err)
			continue
		}
		if err := req.Stencil.Validate(); err != nil {
			it.fail(err)
			continue
		}
		if _, err := tr.classifierFor(req.GPU, req.Stencil.Dims); err != nil {
			it.fail(err)
			continue
		}
		it.arch = arch
	}
	return items
}

// classKey identifies the classifier serving an item.
type classKey struct {
	gpu  string
	dims int
}

// classifyServeItems scores each (GPU, dims) group's stencils through
// one batched classifier call, then resolves the regressor, preserving
// ServePredict's error precedence (classifier errors before regressor
// errors).
func classifyServeItems(tr *Trained, sc scorer, items []*serveItem) {
	for _, g := range groupBy(items, func(it *serveItem) classKey { return classKey{it.req.GPU, it.req.Stencil.Dims} }) {
		calls, err := sc.classify(g)
		if err != nil {
			failLive(g, err)
			continue
		}
		calls.run(g)
	}
	for _, it := range live(items) {
		if _, ok := tr.Regressors[it.req.Stencil.Dims]; !ok {
			it.fail(fmt.Errorf("core: no trained %d-D regressor", it.req.Stencil.Dims))
		}
	}
}

// tuneServeItems tunes every live item's representative OC concurrently.
// The simulator layer is concurrency-safe (memoized behind a lock) and
// each item's tuning seed derives from its request, so parallel tuning
// returns exactly what serial tuning would. Errors land in item slots;
// the worker fn never fails, so with a live context ForEach runs every
// item. A context that expires mid-pass stops dispatch (in-flight items
// finish and keep their results); items the pool never reached fail with
// the context error.
func (f *Framework) tuneServeItems(ctx context.Context, items []*serveItem) {
	todo := live(items)
	if len(todo) == 0 {
		return
	}
	_ = par.ForEach(ctx, len(todo), 0, func(i int) error {
		it := todo[i]
		it.tunedDone = true
		if err := guard("tuning", func() (err error) {
			it.oc, it.tuned, err = f.tuneForClass(it.req.GPU, it.req.Stencil, it.arch, it.proba)
			return err
		}); err != nil {
			it.fail(err)
		}
		return nil
	})
	if err := ctx.Err(); err != nil {
		for _, it := range todo {
			if it.out.Err == nil && !it.tunedDone {
				it.fail(err)
			}
		}
	}
}

// assemble builds the item's ServePrediction with the exact field set
// ServePredict returns.
func (it *serveItem) assemble(f *Framework) *ServePrediction {
	archs := f.Dataset.Archs
	names := make([]string, len(archs))
	for i, a := range archs {
		names[i] = a.Name
	}
	return &ServePrediction{
		Stencil:          it.req.Stencil.Name,
		GPU:              it.req.GPU,
		Class:            it.class,
		Proba:            it.proba,
		OC:               it.oc.String(),
		Params:           it.tuned.Params,
		TunedSeconds:     it.tuned.Time,
		ArchNames:        names,
		PredictedSeconds: it.times,
		Advice:           rentAdvice(it.req.GPU, archs, it.times),
	}
}

// scorer is one lane's model arithmetic: it encodes a group's rows, calls
// the lane's models and converts their outputs onto the items. The
// pipeline around it — grouping, fallback, panic guards — is shared.
type scorer interface {
	// classify prepares the classifier calls for one (GPU, dims) group,
	// recording each item's class and probabilities.
	classify(items []*serveItem) (scoreCalls, error)
	// regress prepares the cross-GPU regressor calls for one dims group,
	// recording each item's predicted seconds.
	regress(items []*serveItem) scoreCalls
}

// scoreCalls is one group's model calls as a lane prepared them: batch
// scores the whole group in one call, item scores item i alone. Either
// may panic; run guards both, naming the call in the error.
type scoreCalls struct {
	batchWhat, itemWhat string
	batch               func() error
	item                func(i int) error
}

// run scores the group through its batched call; when that panics or
// fails, it retries item by item so a poisoned row fails only its own
// request while its batchmates still get their results.
func (c scoreCalls) run(items []*serveItem) {
	if guard(c.batchWhat, c.batch) == nil {
		return
	}
	for i, it := range items {
		if err := guard(c.itemWhat, func() error { return c.item(i) }); err != nil {
			it.fail(err)
		}
	}
}

// f64Scorer is the reference lane: Trained's float64 models over heap
// rows, with ServePredict's encoders.
type f64Scorer struct {
	tr    *Trained
	archs []gpu.Arch
}

func (s *f64Scorer) classify(items []*serveItem) (scoreCalls, error) {
	cls, err := s.tr.classifierFor(items[0].req.GPU, items[0].req.Stencil.Dims)
	if err != nil {
		return scoreCalls{}, err
	}
	rows := make([][]float64, len(items))
	for i, it := range items {
		rows[i] = classEncode(s.tr.ClassifierKind, it.req.Stencil)
	}
	return scoreCalls{
		batchWhat: "batched classify",
		itemWhat:  "classify",
		batch: func() error {
			probas := ml.PredictProbaAll(cls, rows)
			if len(probas) != len(rows) {
				return fmt.Errorf("core: batched classify returned %d rows for %d", len(probas), len(rows))
			}
			for i, it := range items {
				it.class, it.proba = ml.ArgMax(probas[i]), probas[i]
			}
			return nil
		},
		item: func(i int) error {
			proba := cls.PredictProba(rows[i])
			items[i].class, items[i].proba = ml.ArgMax(proba), proba
			return nil
		},
	}, nil
}

// regress scores the group's len(archs) rows per item in one pass and
// slices the flat output back per item; row independence of the batched
// paths makes each slice identical to a per-item PredictStencilSeconds
// call, which is the fallback.
func (s *f64Scorer) regress(items []*serveItem) scoreCalls {
	reg := s.tr.Regressors[items[0].req.Stencil.Dims]
	n := len(s.archs)
	rows := make([][]float64, 0, len(items)*n)
	for _, it := range items {
		rows = append(rows, reg.stencilRows(it.req.Stencil, it.oc, it.tuned.Params, s.archs)...)
	}
	return scoreCalls{
		batchWhat: "batched regression",
		itemWhat:  "regression",
		batch: func() error {
			vals := ml.PredictValueAll(reg.model, rows)
			if len(vals) != len(rows) {
				return fmt.Errorf("core: batched regression returned %d values for %d rows", len(vals), len(rows))
			}
			reg.invertSeconds(vals)
			for i, it := range items {
				it.times = vals[i*n : (i+1)*n : (i+1)*n]
			}
			return nil
		},
		item: func(i int) error {
			it := items[i]
			it.times = reg.PredictStencilSeconds(it.req.Stencil, it.oc, it.tuned.Params, s.archs)
			return nil
		},
	}
}

// f32Scorer is the float32 lane: CompiledTrained's models over rows and
// outputs carved from the batch's ServeArena. Rows encode in arena
// float64 scratch (the reference encoders bit for bit) and convert once
// into float32; a single item's fallback is the same call over its own
// rows.
type f32Scorer struct {
	ct    *CompiledTrained
	arena *ServeArena
	archs []gpu.Arch
}

// newF32Scorer resolves the compiled lane and resets the batch's arena.
func (f *Framework) newF32Scorer(arena *ServeArena) (scorer, error) {
	ct, err := f.CompiledF32()
	if err != nil {
		return nil, err
	}
	if arena == nil {
		arena = NewServeArena()
	}
	arena.Reset()
	return &f32Scorer{ct: ct, arena: arena, archs: f.Dataset.Archs}, nil
}

// rangeCalls builds a group's calls from one function scoring items
// [lo, hi): the batch is the whole range, an item is a range of one.
func rangeCalls(what string, n int, score func(lo, hi int)) scoreCalls {
	return scoreCalls{
		batchWhat: what,
		itemWhat:  what,
		batch:     func() error { score(0, n); return nil },
		item:      func(i int) error { score(i, i+1); return nil },
	}
}

func (s *f32Scorer) classify(items []*serveItem) (scoreCalls, error) {
	dims := items[0].req.Stencil.Dims
	cls, err := s.ct.classifierFor(items[0].req.GPU, dims)
	if err != nil {
		return scoreCalls{}, err
	}
	width := classWidth(s.ct.ClassifierKind, dims)
	classes := cls.Classes()
	rows := s.arena.Rows(len(items))
	scratch := s.arena.F64(width)
	for i, it := range items {
		row := s.arena.F32(width)
		classRowInto(s.ct.ClassifierKind, it.req.Stencil, scratch)
		for j, v := range scratch {
			row[j] = float32(v)
		}
		rows[i] = row
	}
	out := s.arena.F32(len(items) * classes)
	return rangeCalls("batched f32 classify", len(items), func(lo, hi int) {
		cls.PredictProbaBatchF32(rows[lo:hi], out[lo*classes:hi*classes])
		for i := lo; i < hi; i++ {
			p := out[i*classes : (i+1)*classes]
			items[i].class, items[i].proba = ml.ArgMaxF32(p), probaCopy(p)
		}
	}), nil
}

func (s *f32Scorer) regress(items []*serveItem) scoreCalls {
	dims := items[0].req.Stencil.Dims
	reg := s.ct.regressors[dims]
	n := len(s.archs)
	width := regWidthFor(reg.kind, dims)
	rows := s.arena.Rows(len(items) * n)
	scratch := s.arena.F64(width)
	for i, it := range items {
		for ai, arch := range s.archs {
			row := s.arena.F32(width)
			reg.encodeRowF32(it.req.Stencil, it.oc, it.tuned.Params, arch, scratch, row)
			rows[i*n+ai] = row
		}
	}
	out := s.arena.F32(len(rows))
	return rangeCalls("batched f32 regression", len(items), func(lo, hi int) {
		reg.model.PredictValueBatchF32(rows[lo*n:hi*n], out[lo*n:hi*n])
		for i := lo; i < hi; i++ {
			items[i].times = reg.invertSecondsF32(out[i*n : (i+1)*n])
		}
	})
}

// probaCopy lifts an arena probability row to a float64 heap copy that
// survives the arena's next Reset.
func probaCopy(p []float32) []float64 {
	out := make([]float64, len(p))
	for k, v := range p {
		out[k] = float64(v)
	}
	return out
}
