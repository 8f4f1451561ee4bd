package main

import (
	"bytes"
	"math"
	"os"
	"testing"
	"time"
)

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, so quantile must sort
		}
		return xs
	}
	if _, ok := tailQuantile(seq(999), 0.99); ok {
		t.Fatal("999 samples: p99 rank 990 leaves 9 beyond, want not reported")
	}
	v, ok := tailQuantile(seq(1000), 0.99)
	if !ok || v != 990 {
		t.Fatalf("1000 samples: got %v ok=%v, want 990 (10 beyond)", v, ok)
	}
	if _, ok := tailQuantile(nil, 0.99); ok {
		t.Fatal("no samples reported a p99")
	}
	if got := quantile(seq(10), 0.5); got != 5 {
		t.Fatalf("nearest-rank p50 of 1..10 = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

// fakeClock advances only when slept on or told to.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopDueTimes(t *testing.T) {
	start := time.Unix(1000, 0)
	c := &fakeClock{now: start}
	var dues []time.Duration
	late := openLoop(c, 100, 50*time.Millisecond, func(i int, due time.Time) {
		dues = append(dues, due.Sub(start))
		if i == 1 {
			c.now = c.now.Add(25 * time.Millisecond) // the generator stalls
		}
	})
	ms := time.Millisecond
	wantDue := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 40 * ms}
	// The stall after slot 1 makes slot 2 (due 20ms, sent 35ms) 15ms late
	// and slot 3 5ms late; slot 4 is due after the stall ends.
	wantLate := []time.Duration{0, 0, 15 * ms, 5 * ms, 0}
	if len(dues) != len(wantDue) || len(late) != len(wantLate) {
		t.Fatalf("got %d sends, %d lateness values; want 5", len(dues), len(late))
	}
	for i := range wantDue {
		if dues[i] != wantDue[i] || late[i] != wantLate[i] {
			t.Errorf("slot %d: due %v late %v, want due %v late %v", i, dues[i], late[i], wantDue[i], wantLate[i])
		}
	}
	// Latency counts from the due time: slot 2 answered at 38ms took 18ms.
	p := phase{samples: []sample{{from: start.Add(20 * ms), sent: start.Add(35 * ms), done: start.Add(38 * ms)}}}
	if got := p.latenciesMs()[0]; got != 18 {
		t.Errorf("open-loop latency %vms, want 18ms from the due time", got)
	}
}

func TestSelfTimes(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "parent", Start: at(0), End: at(10)},
		{ID: 2, Parent: 1, Name: "a", Start: at(1), End: at(3)},
		{ID: 3, Parent: 1, Name: "b", Start: at(2), End: at(5)},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: at(8), End: at(12)}, // runs past the parent
		{ID: 5, Parent: 3, Name: "leaf", Start: at(2), End: at(4)},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 4, 2: 2, 3: 1, 4: 4, 5: 2} // ms
	for id, w := range want {
		if self[id] != w*time.Millisecond {
			t.Errorf("span %d self time %v, want %vms", id, self[id], int(w))
		}
	}
}

func TestLinkRequests(t *testing.T) {
	spans := []span{
		{ID: 7, Name: "client", Req: "r1"},
		{ID: 8, Name: "server", Req: "r1"},
		{ID: 9, Name: "server", Req: "r2"}, // no client span: stays a root
	}
	linkRequests(spans)
	if spans[1].Parent != 7 || spans[2].Parent != 0 {
		t.Fatalf("parents %d, %d; want 7, 0", spans[1].Parent, spans[2].Parent)
	}
}

func TestReconcile(t *testing.T) {
	row := reconcile("low", 2000, 1800, []stage{
		{"serve.decode", 10}, {"core.batch_req", 60}, {"serve.encode", 30},
	})
	if row.TransportUs != 200 || row.StageSum != 100 || row.CoreSum != 60 || row.GapUs != 1700 {
		t.Fatalf("got transport %v stages %v core %v gap %v; want 200, 100, 60, 1700",
			row.TransportUs, row.StageSum, row.CoreSum, row.GapUs)
	}
	if sum := row.TransportUs + row.StageSum + row.GapUs; math.Abs(sum-row.ClientP50) > 1e-9 {
		t.Fatalf("parts sum to %v, want the client p50 %v", sum, row.ClientP50)
	}
}

func TestPhaseDurations(t *testing.T) {
	w := workload{lowRPS: 100, highRPS: 200}
	low, high, sat, err := phaseDurations(w, 18)
	if err != nil {
		t.Fatal(err)
	}
	if low != 10500*time.Millisecond || high != 5250*time.Millisecond || sat != 2250*time.Millisecond {
		t.Fatalf("got %v %v %v", low, high, sat)
	}
	if _, _, _, err := phaseDurations(w, 12); err == nil {
		t.Fatal("12s cannot hold both open-loop phases and a sat phase")
	}
}

// BENCHMARK.json is generated from spec.go; regenerate it with
// `go run . -spec > ../BENCHMARK.json` after changing a definition.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	have, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var want bytes.Buffer
	if err := writeSpec(&want, defaultSeconds); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(have, want.Bytes()) {
		t.Fatal("BENCHMARK.json is stale; regenerate it with `go run . -spec > ../BENCHMARK.json`")
	}
}
