package main

import (
	"encoding/json"
	"io"
)

// metricDef names one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none, so it is
// left out of their JSON.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees. Every workload reports
// all of them: each run trains its own models and then serves one of
// them, so every number is measured, never filled in. The bounds are the
// run-to-run precision of a shared 2-vCPU host, whose speed drifts by
// 10-25% over minutes. The phase p99s are measured every run but listed
// per layer: host stalls move them by 80-220% between runs (interquartile
// range over ten seeds), beyond any bound a regression gate can use.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"cells_per_s", "1/s", "higher", 0.25},
	{"train_tree_s", "s", "lower", 0.25},
	{"train_nn_s", "s", "lower", 0.25},
	{"top1_acc", "ratio", "higher", 0.15},
	{"mape_pct", "%", "lower", 0.15},
	{"low_p50_ms", "ms", "lower", 0.25},
	{"high_p50_ms", "ms", "lower", 0.25},
	{"sat_rps", "1/s", "higher", 0.25},
}

// perLayer lists the traced run's breakdown, one group per module. The
// README maps each to the end-to-end metric it should move.
var perLayer = []metricDef{
	{"gen.corpus_ms", "ms", "lower", 0},
	{"sim.compile_us", "us", "lower", 0},
	{"sim.eval_ns", "ns", "lower", 0},
	{"sim.memo_hit_ratio", "ratio", "higher", 0},
	{"sim.memo_entries", "count", "lower", 0},
	{"profile.cell_us", "us", "lower", 0},
	{"profile.non_eval_share", "ratio", "lower", 0},
	{"persist.wal_bytes", "bytes", "lower", 0},
	{"persist.replay_ms", "ms", "lower", 0},
	{"persist.ckpt_bytes", "bytes", "lower", 0},
	{"persist.ckpt_save_ms", "ms", "lower", 0},
	{"persist.ckpt_load_ms", "ms", "lower", 0},
	{"tree.cls_fit_ms", "ms", "lower", 0},
	{"tree.reg_fit_ms", "ms", "lower", 0},
	{"nn.cls_fit_ms", "ms", "lower", 0},
	{"nn.reg_fit_ms", "ms", "lower", 0},
	{"core.classify_us", "us", "lower", 0},
	{"core.tune_us", "us", "lower", 0},
	{"core.regress_us", "us", "lower", 0},
	{"core.batch1_us", "us", "lower", 0},
	{"core.batch_req_us", "us", "lower", 0},
	{"registry.publish_ms", "ms", "lower", 0},
	{"serve.handler_p50_us", "us", "lower", 0},
	{"serve.handler_p99_us", "us", "lower", 0},
	{"serve.decode_us", "us", "lower", 0},
	{"serve.encode_us", "us", "lower", 0},
	{"serve.gap_us", "us", "lower", 0},
	{"serve.transport_us", "us", "lower", 0},
	{"serve.shed", "count", "lower", 0},
	{"batch.avg_size", "count", "higher", 0},
	{"batch.window_flush_share", "ratio", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"loadgen.late_p99_ms", "ms", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"low_p99_ms", "ms", "lower", 0},
	{"high_p99_ms", "ms", "lower", 0},
}

// writeSpec writes BENCHMARK.json, the benchmark's contract, from the
// definitions above so the file and the code cannot drift apart.
func writeSpec(w io.Writer, runSeconds int) error {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	spec := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []metricDef     `json:"end_to_end"`
		PerLayer   []metricDef     `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, workloadEntry{w.name, w.why})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}
