package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"time"

	"stencilmart/internal/core"
	"stencilmart/internal/gpu"
	"stencilmart/internal/opt"
	"stencilmart/internal/profile"
	"stencilmart/internal/serve"
	"stencilmart/internal/sim"
	"stencilmart/internal/stencil"
	"stencilmart/internal/tuner"
)

// The traced run replays work outside the timed sections, one public call
// per span, because spans come from the benchmark's own files only: the
// parallel calls inside TrainAll, CollectJournal and the server cannot be
// opened from outside.
const (
	// replayCells caps the collection cells replayed serially.
	replayCells = 64
	// replayRequests caps the requests replayed per serve phase.
	replayRequests = 500
	// overheadBlocks alternating untraced/traced closed-loop blocks of
	// overheadBlock each measure the tracing overhead.
	overheadBlocks = 6
	overheadBlock  = 400 * time.Millisecond
)

// replayTraining refits every (arch, dims) classifier and every dims
// regressor of the framework's current model kinds, serially, with the
// seeds TrainAll uses, and reports the summed fit times as
// <family>.cls_fit_ms and <family>.reg_fit_ms.
func replayTraining(fw *core.Framework, tr *tracer, r *run, family string) error {
	ck, rk := fw.Trained.ClassifierKind, fw.Trained.RegressorKind
	var cls, reg time.Duration
	for ai := range fw.Dataset.Archs {
		for _, d := range []int{2, 3} {
			idx := fw.StencilIndices(d)
			if len(idx) == 0 {
				continue
			}
			seed := fw.Cfg.Seed + 10000 + int64(ai)*100 + int64(d)
			var err error
			cls += tr.timed("core.TrainClassifier", 0, func() { _, _, err = fw.TrainClassifier(ck, ai, d, idx, seed) })
			if err != nil {
				return err
			}
		}
	}
	for _, d := range []int{2, 3} {
		ins := dimsInstances(fw, d)
		if len(ins) == 0 {
			continue
		}
		var err error
		reg += tr.timed("core.TrainRegressor", 0, func() { _, err = fw.TrainRegressor(rk, d, ins, fw.Cfg.Seed+20000+int64(d)) })
		if err != nil {
			return err
		}
	}
	r.set(family+".cls_fit_ms", ms(cls))
	r.set(family+".reg_fit_ms", ms(reg))
	return nil
}

// dimsInstances selects the regression training set the way TrainAll
// does: every instance of the dimensionality, subsampled to the
// configured cap by a seeded permutation.
func dimsInstances(fw *core.Framework, dims int) []profile.Instance {
	var out []profile.Instance
	for _, in := range fw.Dataset.Instances {
		if fw.Dataset.Stencils[in.StencilIdx].Dims == dims {
			out = append(out, in)
		}
	}
	if limit := fw.Cfg.MaxRegressionInstances; limit > 0 && len(out) > limit {
		perm := rand.New(rand.NewSource(fw.Cfg.Seed + 31)).Perm(len(out))
		sub := make([]profile.Instance, limit)
		for i := range sub {
			sub[i] = out[perm[i]]
		}
		out = sub
	}
	return out
}

// replayCollection profiles an even spread of cells serially on a fresh
// model, then prices each cell's sampled parameters again through a
// freshly compiled evaluator, so a cell's time splits into evaluation and
// everything around it (rng seeding, parameter sampling, bookkeeping).
func replayCollection(ctx context.Context, cfg core.Config, corpus []stencil.Stencil, archs []gpu.Arch, tr *tracer, r *run) error {
	p := profile.NewProfiler(cfg.SamplesPerOC, cfg.Seed+1000)
	evalModel := sim.New()
	n := len(corpus) * len(archs)
	step := max(1, n/replayCells)
	var cellUs, compileUs, evalNs []float64
	for c := 0; c < n; c += step {
		si, ai := c%len(corpus), c/len(corpus)
		s, arch := corpus[si], archs[ai]
		parent := tr.newID()
		start := time.Now()
		var ins []profile.Instance
		var err error
		d := tr.timed("profile.ProfileOne", parent, func() { _, ins, err = p.ProfileOne(ctx, si, s, arch) })
		if err != nil {
			return err
		}
		cellUs = append(cellUs, us(d))
		var ev *sim.CellEvaluator
		d = tr.timed("sim.Model.Evaluator", parent, func() { ev, err = evalModel.Evaluator(sim.DefaultWorkload(s), arch) })
		if err != nil {
			return err
		}
		compileUs = append(compileUs, us(d))
		if len(ins) > 0 {
			d = tr.timed("sim.CellEvaluator.Eval", parent, func() {
				for _, in := range ins {
					ev.Eval(in.OC, in.Params)
				}
			})
			evalNs = append(evalNs, float64(d.Nanoseconds())/float64(len(ins)))
		}
		tr.add(span{ID: parent, Name: "replay.cell", Start: start, End: time.Now()})
	}
	cell, eval := median(cellUs), median(evalNs)
	samples := float64(len(opt.Combinations()) * cfg.SamplesPerOC)
	r.set("profile.cell_us", cell)
	r.set("sim.compile_us", median(compileUs))
	r.set("sim.eval_ns", eval)
	r.set("profile.non_eval_share", 1-samples*eval/1e3/cell)
	return nil
}

// replayServe replays up to replayRequests requests of every phase
// outside the server on fresh copies of the served checkpoint, so cache
// state follows the same request order the server saw. The f64 stage
// split (decode, classify, tune, regress, encode) and the batch call on
// the workload's lane at the phase's observed batch size are timed; the
// reconciliation puts them next to the traced handler and client spans.
func replayServe(ckpt string, w workload, reqs probeStream, phases []*phase, refAt func(int) core.ServeOutcome, tr *tracer, r *run) error {
	linkRequests(tr.spans)
	self := selfTimes(tr.spans)
	clientUs := make(map[string]float64)
	serverUs := make(map[string]float64)
	transportUs := make(map[string]float64) // client span minus its server child
	for _, s := range tr.spans {
		switch s.Name {
		case "client":
			clientUs[s.Req] = us(s.dur())
			transportUs[s.Req] = us(self[s.ID])
		case "server":
			serverUs[s.Req] = us(s.dur())
		}
	}
	for _, p := range phases {
		var seqs []int
		var client, handler, transport []float64
		for _, s := range p.samples {
			id := reqID(s.seq)
			client = append(client, clientUs[id])
			handler = append(handler, serverUs[id])
			transport = append(transport, transportUs[id])
			if len(seqs) < replayRequests {
				seqs = append(seqs, s.seq)
			}
		}
		st, err := replayStages(ckpt, reqs, seqs, refAt, tr)
		if err != nil {
			return err
		}
		size := max(1, int(math.Round(p.batch.AvgBatch)))
		perReq, err := replayBatches(ckpt, w.lane, reqs, seqs, size, tr)
		if err != nil {
			return err
		}
		stages := []stage{
			{"serve.decode", median(st["serve.decode"])},
			{"core.batch_req", median(perReq)},
			{"serve.encode", median(st["serve.encode"])},
		}
		row := reconcile(p.name, quantile(client, 0.5), quantile(handler, 0.5), stages)
		fmt.Println(row)
		fmt.Printf("           %-5s per-request transport (client self time) p50 %.1fus\n", p.name, quantile(transport, 0.5))
		fmt.Printf("           %-5s f64 split: classify %.1fus tune %.1fus regress %.1fus (batch of %d on %s)\n",
			p.name, median(st["core.classify"]), median(st["core.tune"]), median(st["core.regress"]), size, laneName(w.lane))
		if p.name != "low" {
			continue
		}
		hp99, ok := tailQuantile(handler, 0.99)
		if !ok {
			return fmt.Errorf("low phase: too few server spans for a p99")
		}
		r.set("serve.handler_p50_us", row.HandlerP50)
		r.set("serve.handler_p99_us", hp99)
		r.set("serve.transport_us", row.TransportUs)
		r.set("serve.gap_us", row.GapUs)
		r.set("serve.decode_us", stages[0].P50us)
		r.set("serve.encode_us", stages[2].P50us)
		r.set("core.batch_req_us", stages[1].P50us)
		r.set("core.classify_us", median(st["core.classify"]))
		r.set("core.tune_us", median(st["core.tune"]))
		r.set("core.regress_us", median(st["core.regress"]))
		for _, lane := range []serve.Lane{serve.LaneF64, serve.LaneF32} {
			one, err := replayBatches(ckpt, lane, reqs, seqs, 1, tr)
			if err != nil {
				return err
			}
			fmt.Printf("           batch of 1 on %s: %.1fus\n", lane, median(one))
			if lane == serve.Lane(laneName(w.lane)) {
				r.set("core.batch1_us", median(one))
			}
		}
	}
	return nil
}

func reqID(seq int) string { return fmt.Sprintf("r%d", seq) }

// replayStages runs the serving path one stage at a time: decode the
// body, classify, tune the class representative, regress across GPUs and
// encode the response. It returns each stage's durations in µs.
func replayStages(ckpt string, reqs probeStream, seqs []int, refAt func(int) core.ServeOutcome, tr *tracer) (map[string][]float64, error) {
	fw, err := core.LoadFrameworkFile(ckpt)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]float64)
	stage := func(name string, parent int64, f func()) {
		out[name] = append(out[name], us(tr.timed(name, parent, f)))
	}
	for _, seq := range seqs {
		body, _ := reqs.at(seq)
		parent := tr.newID()
		start := time.Now()
		var s stencil.Stencil
		var req serve.PredictRequest
		stage("serve.decode", parent, func() {
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err = dec.Decode(&req); err == nil {
				s, err = requestStencil(req)
			}
		})
		if err != nil {
			return nil, err
		}
		var proba []float64
		stage("core.classify", parent, func() { _, proba, err = fw.PredictClassTrained(req.GPU, s) })
		if err != nil {
			return nil, err
		}
		_, arch, err := fw.ArchByName(req.GPU)
		if err != nil {
			return nil, err
		}
		var oc opt.Opt
		var res tuner.Result
		stage("core.tune", parent, func() {
			w, seed := sim.DefaultWorkload(s), requestSeed(fw.Cfg.Seed, req.GPU, s)
			for _, c := range classOrder(proba) {
				oc = fw.Grouping.RepOC(c)
				if res, err = (tuner.Random{}).Tune(fw.Model, w, oc, arch, fw.Cfg.SamplesPerOC, seed); err == nil {
					return
				}
			}
		})
		if err != nil {
			return nil, err
		}
		stage("core.regress", parent, func() {
			fw.Trained.Regressors[s.Dims].PredictStencilSeconds(s, oc, res.Params, fw.Dataset.Archs)
		})
		ref := refAt(seq)
		stage("serve.encode", parent, func() {
			var buf bytes.Buffer
			err = json.NewEncoder(&buf).Encode(ref.Prediction)
		})
		if err != nil {
			return nil, err
		}
		tr.add(span{ID: parent, Name: "replay.request", Req: reqID(seq), Start: start, End: time.Now()})
	}
	return out, nil
}

// requestStencil resolves a request body's stencil the way the server
// does: a classic name or raw offsets.
func requestStencil(req serve.PredictRequest) (stencil.Stencil, error) {
	if req.Stencil != "" {
		return stencil.ByName(req.Stencil)
	}
	pts := make([]stencil.Point, len(req.Points))
	for i, p := range req.Points {
		if len(p) != 3 {
			return stencil.Stencil{}, fmt.Errorf("point %d has %d coordinates", i, len(p))
		}
		pts[i] = stencil.Point{Dx: p[0], Dy: p[1], Dz: p[2]}
	}
	return stencil.New(req.Name, req.Dims, pts)
}

// requestSeed is the serving path's per-request tuning seed.
func requestSeed(base int64, archName string, s stencil.Stencil) int64 {
	h := fnv.New64a()
	io.WriteString(h, archName)
	io.WriteString(h, s.Name)
	for _, p := range s.Points {
		fmt.Fprintf(h, "|%d,%d,%d", p.Dx, p.Dy, p.Dz)
	}
	return base + int64(h.Sum64()&0x7fffffff)
}

// replayBatches scores seqs through the lane's batch call in batches of
// size on a fresh copy of the checkpoint, returning µs per request of
// each batch.
func replayBatches(ckpt string, lane serve.Lane, reqs probeStream, seqs []int, size int, tr *tracer) ([]float64, error) {
	fw, err := core.LoadFrameworkFile(ckpt)
	if err != nil {
		return nil, err
	}
	arena := core.NewServeArena()
	all := make([]probe, len(seqs))
	for i, seq := range seqs {
		all[i] = reqs.probeAt(seq)
	}
	var out []float64
	for lo := 0; lo < len(all); lo += size {
		batch := serveRequests(all[lo:min(lo+size, len(all))])
		var outs []core.ServeOutcome
		var d time.Duration
		if lane == serve.LaneF32 {
			arena.Reset()
			d = tr.timed("core.ServePredictBatchF32", 0, func() { outs = fw.ServePredictBatchF32(context.Background(), batch, arena) })
		} else {
			d = tr.timed("core.ServePredictBatch", 0, func() { outs = fw.ServePredictBatch(context.Background(), batch) })
		}
		for _, o := range outs {
			if o.Err != nil {
				return nil, o.Err
			}
		}
		out = append(out, us(d)/float64(len(batch)))
	}
	return out, nil
}

// measureOverhead alternates untraced and traced closed-loop blocks and
// reports how much slower the traced ones ran, in percent.
func measureOverhead(d *loader, reqs probeStream, base int, tr *tracer, r *run) error {
	var off, on []float64
	for b := 0; b < overheadBlocks; b++ {
		if err := reqs.reserve(base + closedCount(overheadBlock)); err != nil {
			return err
		}
		tr.off.Store(b%2 == 0)
		got, el := d.runClosed(base, overheadBlock)
		base += len(got)
		rps := float64(len(got)) / el.Seconds()
		if b%2 == 0 {
			off = append(off, rps)
		} else {
			on = append(on, rps)
		}
	}
	tr.off.Store(false)
	r.set("trace.overhead_pct", 100*(median(off)/median(on)-1))
	return nil
}
