package main

import (
	"fmt"
	"runtime"
	"time"

	"stencilmart/internal/serve"
	"stencilmart/internal/serve/batch"
)

// probeStream is a request stream that can also name the (stencil, GPU)
// behind each index, for the output checks and the traced replay. Before a
// phase, runPhases reserves every index the phase may use.
type probeStream interface {
	stream
	probeAt(i int) probe
	reserve(n int) error
}

// phase is one measured serve phase.
type phase struct {
	name    string
	samples []sample
	late    []time.Duration // open loop only
	elapsed time.Duration
	batch   batch.Stats // coalescer counters accrued during the phase
	shed    uint64
}

func (p *phase) latenciesMs() []float64 {
	out := make([]float64, len(p.samples))
	for i, s := range p.samples {
		out[i] = ms(s.done.Sub(s.from))
	}
	return out
}

func (p *phase) failures() int {
	n := 0
	for _, s := range p.samples {
		if !s.ok() {
			n++
		}
	}
	return n
}

// runPhases warms the server up and then runs low, high and sat. An
// open-loop phase whose generator ran more than lateBoundMs late (p99) is
// invalid: it is discarded and run again, up to phaseAttempts times. The
// returned phases hold every sample, in stream order within a phase.
func runPhases(l *liveServer, d *loader, reqs probeStream, w workload, seconds float64) ([]*phase, error) {
	if err := reqs.reserve(closedCount(warmup)); err != nil {
		return nil, err
	}
	warm, _ := d.runClosed(0, warmup)
	base := len(warm)
	for _, s := range warm {
		if !s.ok() {
			return nil, fmt.Errorf("warm-up request %d failed: status %d, %v", s.seq, s.status, s.err)
		}
	}
	lowDur, highDur, satDur, err := phaseDurations(w, seconds)
	if err != nil {
		return nil, err
	}
	var out []*phase
	for _, name := range []string{"low", "high", "sat"} {
		runtime.GC() // start each phase without the previous one's garbage
		p := &phase{name: name}
		var before serve.StatsResponse
		switch name {
		case "low", "high":
			rate, dur := w.lowRPS, lowDur
			if name == "high" {
				rate, dur = w.highRPS, highDur
			}
			for attempt := 1; ; attempt++ {
				if err := reqs.reserve(base + openCount(rate, dur)); err != nil {
					return nil, err
				}
				if before, err = l.stats(); err != nil {
					return nil, err
				}
				p.samples, p.late = d.runOpen(realClock{}, base, rate, dur)
				base += len(p.samples)
				late := p.lateP99()
				if late <= lateBoundMs {
					break
				}
				if attempt == phaseAttempts {
					return nil, fmt.Errorf("phase %s invalid %d times: generator p99 lateness %.3fms exceeds %.0fms", name, attempt, late, lateBoundMs)
				}
				fmt.Printf("phase %-4s invalid: generator p99 lateness %.3fms exceeds %.0fms; repeating\n", name, late, lateBoundMs)
			}
		case "sat":
			if err := reqs.reserve(base + closedCount(satDur)); err != nil {
				return nil, err
			}
			if before, err = l.stats(); err != nil {
				return nil, err
			}
			p.samples, p.elapsed = d.runClosed(base, satDur)
			base += len(p.samples)
		}
		after, err := l.stats()
		if err != nil {
			return nil, err
		}
		p.batch = batchDelta(before.Batch, after.Batch)
		p.shed = after.Faults.LoadShed - before.Faults.LoadShed
		out = append(out, p)
	}
	return out, nil
}

// openCount is how many requests an open-loop phase sends.
func openCount(rate float64, dur time.Duration) int {
	return int(dur / time.Duration(float64(time.Second)/rate))
}

// closedCount is how many requests a closed-loop phase reserves.
func closedCount(dur time.Duration) int { return int(dur.Seconds() * closedCeilingRPS) }

// lateP99 is the open-loop generator's p99 lateness in ms.
func (p *phase) lateP99() float64 {
	late := make([]float64, len(p.late))
	for i, d := range p.late {
		late[i] = ms(d)
	}
	return quantile(late, 0.99)
}

func batchDelta(a, b batch.Stats) batch.Stats {
	d := batch.Stats{
		Batches:       b.Batches - a.Batches,
		Requests:      b.Requests - a.Requests,
		SizeFlushes:   b.SizeFlushes - a.SizeFlushes,
		WindowFlushes: b.WindowFlushes - a.WindowFlushes,
		CloseFlushes:  b.CloseFlushes - a.CloseFlushes,
		Dropped:       b.Dropped - a.Dropped,
	}
	if d.Batches > 0 {
		d.AvgBatch = float64(d.Requests) / float64(d.Batches)
	}
	return d
}

// phaseMetrics turns the measured phases into end-to-end metrics and
// harness counters.
func phaseMetrics(phases []*phase, r *run) error {
	var lateMax float64
	var all batch.Stats
	var shed uint64
	for _, p := range phases {
		lat := p.latenciesMs()
		fails := p.failures()
		r.attempted += len(p.samples)
		r.failed += fails
		p50 := quantile(lat, 0.5)
		p99, ok := tailQuantile(lat, 0.99)
		line := fmt.Sprintf("phase %-4s attempted %6d failed %d p50 %.3fms", p.name, len(p.samples), fails, p50)
		if ok {
			line += fmt.Sprintf(" p99 %.3fms", p99)
		}
		if len(p.late) > 0 {
			lp99 := p.lateP99()
			line += fmt.Sprintf(" late_p99 %.3fms", lp99)
			lateMax = max(lateMax, lp99)
		}
		line += fmt.Sprintf(" batch_avg %.2f", p.batch.AvgBatch)
		fmt.Println(line)
		all.Batches += p.batch.Batches
		all.Requests += p.batch.Requests
		all.WindowFlushes += p.batch.WindowFlushes
		shed += p.shed

		switch p.name {
		case "low", "high":
			if !ok {
				return fmt.Errorf("phase %s: %d samples cannot support a p99 with %d beyond it", p.name, len(lat), minBeyond)
			}
			r.set(p.name+"_p50_ms", p50)
			r.set(p.name+"_p99_ms", p99)
		case "sat":
			r.set("sat_rps", float64(len(p.samples)-fails)/p.elapsed.Seconds())
		}
	}
	r.set("loadgen.late_p99_ms", lateMax)
	r.set("serve.shed", float64(shed))
	if all.Batches > 0 {
		r.set("batch.avg_size", float64(all.Requests)/float64(all.Batches))
		r.set("batch.window_flush_share", float64(all.WindowFlushes)/float64(all.Batches))
	}
	return nil
}

// memoMetrics reports the serving model's sim memo counters.
func memoMetrics(st serve.StatsResponse, r *run) {
	r.set("sim.memo_hit_ratio", st.SimCache.HitRate)
	r.set("sim.memo_entries", float64(st.SimCache.Entries))
}
