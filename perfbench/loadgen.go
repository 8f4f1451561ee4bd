package main

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clock is the time source the open-loop generator paces itself by;
// tests substitute a fake one.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// Sleep blocks in nanosleep(2) rather than time.Sleep: the runtime's
// idle timer wait has millisecond granularity, which would make the
// generator itself up to a millisecond late.
func (realClock) Sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}

// openLoop calls send once for every slot of a fixed-rate schedule
// covering dur, starting at the clock's current time, and returns how
// late each send was against its due time. Each slot is due at
// start + i/rate whatever happened to earlier slots, so a stall in the
// system (or in the generator) shows up as latency of every request due
// during it. send must not wait for the system under test.
func openLoop(c clock, rate float64, dur time.Duration, send func(i int, due time.Time)) []time.Duration {
	interval := time.Duration(float64(time.Second) / rate)
	n := openCount(rate, dur)
	late := make([]time.Duration, 0, n)
	start := c.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := due.Sub(c.Now()); wait > 0 {
			c.Sleep(wait)
		}
		late = append(late, c.Now().Sub(due))
		send(i, due)
	}
	return late
}

// sample is one request's outcome. Latency is done - from, where from is
// the due time in an open loop and the send time in a closed loop.
type sample struct {
	seq        int // index into the request stream
	from, sent time.Time
	done       time.Time
	status     int
	body       []byte
	err        error
}

func (s sample) ok() bool { return s.err == nil && s.status == http.StatusOK }

// stream yields the request bodies of a workload by index; ok is false
// once a finite stream is exhausted.
type stream interface {
	at(i int) (body []byte, ok bool)
}

// loader sends /predict requests over at most conns connections.
type loader struct {
	client *http.Client
	url    string
	conns  int
	reqs   stream
	tr     *tracer // nil when untraced
}

func newLoader(base, query string, conns int, reqs stream, tr *tracer) *loader {
	tp := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &loader{
		client: &http.Client{Transport: tp, Timeout: 60 * time.Second},
		url:    base + "/predict" + query,
		conns:  conns,
		reqs:   reqs,
		tr:     tr,
	}
}

func (d *loader) close() { d.client.CloseIdleConnections() }

// do sends request seq of the stream and fills in the sample.
func (d *loader) do(s *sample) {
	body, _ := d.reqs.at(s.seq)
	req, err := http.NewRequest(http.MethodPost, d.url, bytes.NewReader(body))
	if err != nil {
		s.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	id := ""
	traced := d.tr.on()
	if traced {
		id = reqID(s.seq)
		req.Header.Set("X-Request-Id", id)
	}
	s.sent = time.Now()
	resp, err := d.client.Do(req)
	if err == nil {
		s.status = resp.StatusCode
		s.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	s.done = time.Now()
	s.err = err
	if traced {
		d.tr.add(span{Name: "client", Req: id, Start: s.sent, End: s.done})
	}
}

// runOpen drives an open-loop phase at rate for dur over stream indices
// [base, base+n). Requests queue client-side when every connection is
// busy; their latency still counts from the due time.
func (d *loader) runOpen(c clock, base int, rate float64, dur time.Duration) ([]sample, []time.Duration) {
	n := openCount(rate, dur)
	out := make([]sample, n)
	// Sized to the whole schedule so the generator never blocks on a
	// busy connection and falls behind its own clock.
	jobs := make(chan int, n)
	var wg sync.WaitGroup
	for w := 0; w < d.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				d.do(&out[i])
			}
		}()
	}
	late := openLoop(c, rate, dur, func(i int, due time.Time) {
		out[i].seq, out[i].from = base+i, due
		jobs <- i
	})
	close(jobs)
	wg.Wait()
	return out[:len(late)], late
}

// runClosed drives a closed-loop phase: each connection sends its next
// request as soon as the previous answer arrives, until dur elapses or
// the stream runs out. Indices are taken from base upwards.
func (d *loader) runClosed(base int, dur time.Duration) ([]sample, time.Duration) {
	var next atomic.Int64
	next.Store(int64(base))
	start := time.Now()
	deadline := start.Add(dur)
	per := make([][]sample, d.conns)
	var wg sync.WaitGroup
	for w := 0; w < d.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				seq := int(next.Add(1) - 1)
				if _, ok := d.reqs.at(seq); !ok {
					return
				}
				s := sample{seq: seq}
				d.do(&s)
				s.from = s.sent
				per[w] = append(per[w], s)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out, elapsed
}
