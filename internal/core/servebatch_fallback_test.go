package core

import (
	"context"
	"encoding/json"
	"testing"

	"stencilmart/internal/ml"
	"stencilmart/internal/stencil"
	"stencilmart/internal/testutil"
)

// The batch pipeline's panic fallback is shared by both lanes; these
// tests are the f32 twins of TestServePredictBatchIsolatesPoisonedRow and
// TestServePredictBatchRegressionFallback, plus exact error texts.

// panickyClassifierF32 wraps a compiled classifier and panics whenever a
// scored batch contains the poisoned row.
type panickyClassifierF32 struct {
	inner  ml.ClassifierF32
	poison []float32
}

func (p *panickyClassifierF32) Classes() int { return p.inner.Classes() }
func (p *panickyClassifierF32) PredictProbaBatchF32(rows [][]float32, out []float32) {
	for _, r := range rows {
		if rowsEqualF32(r, p.poison) {
			panic("poisoned row")
		}
	}
	p.inner.PredictProbaBatchF32(rows, out)
}

func rowsEqualF32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// panickyRegressorF32 fails every call scoring more than rowsCap rows,
// forcing the pipeline onto its per-item regression fallback.
type panickyRegressorF32 struct {
	inner   ml.RegressorF32
	rowsCap int
}

func (p *panickyRegressorF32) PredictValueBatchF32(rows [][]float32, out []float32) {
	if len(rows) > p.rowsCap {
		panic("batch too large")
	}
	p.inner.PredictValueBatchF32(rows, out)
}

// classRowF32 encodes a stencil the way the f32 lane feeds its
// classifier: float64 encode, one rounding per element.
func classRowF32(kind ClassifierKind, s stencil.Stencil) []float32 {
	scratch := make([]float64, classWidth(kind, s.Dims))
	classRowInto(kind, s, scratch)
	row := make([]float32, len(scratch))
	for j, v := range scratch {
		row[j] = float32(v)
	}
	return row
}

// assertSameOutcome requires a successful outcome byte-identical to want.
func assertSameOutcome(t *testing.T, label string, want, got ServeOutcome) {
	t.Helper()
	if want.Err != nil || got.Err != nil {
		t.Fatalf("%s: unexpected errors: want %v, got %v", label, want.Err, got.Err)
	}
	wantJSON, err := json.Marshal(want.Prediction)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got.Prediction)
	if err != nil {
		t.Fatal(err)
	}
	testutil.AssertSameBytes(t, label, wantJSON, gotJSON)
}

// TestServePredictBatchF32IsolatesPoisonedRow: when the batched compiled
// classifier call panics, only the request that triggers it fails, with
// the f32 lane's error text; its batchmates match an unstubbed run.
func TestServePredictBatchF32IsolatesPoisonedRow(t *testing.T) {
	fw := lanesFramework(t)
	if err := fw.TrainAll(context.Background(), ClassGBDT, RegGB); err != nil {
		t.Fatal(err)
	}
	ct, err := fw.CompiledF32()
	if err != nil {
		t.Fatal(err)
	}
	gpuName := fw.Dataset.Archs[0].Name
	reqs := []ServeRequest{
		{GPU: gpuName, Stencil: stencil.Star(2, 2)},
		{GPU: gpuName, Stencil: stencil.Box(2, 1)},
		{GPU: gpuName, Stencil: stencil.Star(2, 3)},
	}
	want := fw.ServePredictBatchF32(context.Background(), reqs, nil)

	real := ct.classifiers[gpuName][2]
	ct.classifiers[gpuName][2] = &panickyClassifierF32{
		inner:  real,
		poison: classRowF32(ct.ClassifierKind, reqs[1].Stencil),
	}
	defer func() { ct.classifiers[gpuName][2] = real }()

	outs := fw.ServePredictBatchF32(context.Background(), reqs, NewServeArena())
	const wantErr = "core: batched f32 classify panicked: poisoned row"
	if outs[1].Err == nil || outs[1].Err.Error() != wantErr {
		t.Fatalf("poisoned request gave %+v, want error %q", outs[1], wantErr)
	}
	for _, i := range []int{0, 2} {
		assertSameOutcome(t, reqs[i].Stencil.Name, want[i], outs[i])
	}
}

// TestServePredictBatchF32RegressionFallback: a panicking grouped f32
// regression call degrades to per-item scoring with no observable
// difference from the unstubbed batch.
func TestServePredictBatchF32RegressionFallback(t *testing.T) {
	fw := lanesFramework(t)
	if err := fw.TrainAll(context.Background(), ClassGBDT, RegGB); err != nil {
		t.Fatal(err)
	}
	ct, err := fw.CompiledF32()
	if err != nil {
		t.Fatal(err)
	}
	var reqs []ServeRequest
	for _, a := range fw.Dataset.Archs {
		reqs = append(reqs,
			ServeRequest{GPU: a.Name, Stencil: stencil.Star(2, 2)},
			ServeRequest{GPU: a.Name, Stencil: stencil.Box(2, 2)})
	}
	want := fw.ServePredictBatchF32(context.Background(), reqs, nil)

	reg := ct.regressors[2]
	realModel := reg.model
	// Allow exactly one item's worth of rows: len(archs) per call.
	reg.model = &panickyRegressorF32{inner: realModel, rowsCap: len(fw.Dataset.Archs)}
	defer func() { reg.model = realModel }()

	outs := fw.ServePredictBatchF32(context.Background(), reqs, NewServeArena())
	for i, req := range reqs {
		assertSameOutcome(t, req.Stencil.Name+" on "+req.GPU, want[i], outs[i])
	}

	// With no row count the model accepts, every item fails alone with
	// the lane's regression error text.
	reg.model = &panickyRegressorF32{inner: realModel, rowsCap: 0}
	outs = fw.ServePredictBatchF32(context.Background(), reqs[:1], nil)
	const wantErr = "core: batched f32 regression panicked: batch too large"
	if outs[0].Err == nil || outs[0].Err.Error() != wantErr {
		t.Fatalf("got %+v, want error %q", outs[0], wantErr)
	}
}

// TestServePredictBatchFallbackErrorTexts pins the f64 lane's per-item
// panic texts byte for byte.
func TestServePredictBatchFallbackErrorTexts(t *testing.T) {
	fw := ckptFramework(t)
	if err := fw.TrainAll(context.Background(), ClassGBDT, RegGB); err != nil {
		t.Fatal(err)
	}
	gpuName := fw.Dataset.Archs[0].Name
	poisoned := stencil.Box(2, 1)
	realCls := fw.Trained.Classifiers[gpuName][2]
	fw.Trained.Classifiers[gpuName][2] = &panickyClassifier{
		inner:  realCls,
		poison: classEncode(fw.Trained.ClassifierKind, poisoned),
	}
	outs := fw.ServePredictBatch(context.Background(), []ServeRequest{{GPU: gpuName, Stencil: poisoned}})
	fw.Trained.Classifiers[gpuName][2] = realCls
	if want := "core: classify panicked: poisoned row"; outs[0].Err == nil || outs[0].Err.Error() != want {
		t.Fatalf("classify: got %+v, want error %q", outs[0], want)
	}

	reg := fw.Trained.Regressors[2]
	realModel := reg.model
	reg.model = &panickyRegressor{inner: realModel, rowsCap: 0}
	defer func() { reg.model = realModel }()
	outs = fw.ServePredictBatch(context.Background(), []ServeRequest{{GPU: gpuName, Stencil: stencil.Star(2, 2)}})
	if want := "core: regression panicked: batch too large"; outs[0].Err == nil || outs[0].Err.Error() != want {
		t.Fatalf("regress: got %+v, want error %q", outs[0], want)
	}
}
