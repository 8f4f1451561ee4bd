package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Parent is the ID of the span that
// caused it (0 for a root); spans of one request share Req.
type span struct {
	ID, Parent int64
	Name       string
	Req        string
	Start, End time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	off   atomic.Bool // pauses recording, for the overhead measurement
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func (t *tracer) on() bool { return t != nil && !t.off.Load() }

// newID reserves a span ID, for a parent whose children end before it.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records s, assigning an ID when it has none, and returns the ID.
func (t *tracer) add(s span) int64 {
	if !t.on() {
		return 0
	}
	if s.ID == 0 {
		s.ID = t.ids.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// timed runs f inside a span named name under parent.
func (t *tracer) timed(name string, parent int64, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(span{Name: name, Parent: parent, Start: start, End: end})
	return end.Sub(start)
}

// handler wraps next in a server span named "server" per request, keyed
// by the client's X-Request-Id.
func (t *tracer) handler(next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		t.add(span{Name: "server", Req: r.Header.Get("X-Request-Id"), Start: start, End: time.Now()})
	})
}

// linkRequests parents every server span on the client span of the same
// request, so a request's transport time is its client span's self time.
func linkRequests(spans []span) {
	client := make(map[string]int64)
	for _, s := range spans {
		if s.Name == "client" && s.Req != "" {
			client[s.Req] = s.ID
		}
	}
	for i, s := range spans {
		if s.Name == "server" && s.Parent == 0 {
			spans[i].Parent = client[s.Req]
		}
	}
}

// selfTimes returns each span's duration minus the part of its interval
// covered by the union of its children's intervals.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start.Before(kids[b].Start) })
		var covered time.Duration
		var cur time.Time // end of the covered prefix
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo.Before(p.Start) {
				lo = p.Start
			}
			if hi.After(p.End) {
				hi = p.End
			}
			if lo.Before(cur) {
				lo = cur
			}
			if hi.After(lo) {
				covered += hi.Sub(lo)
				cur = hi
			}
		}
		out[p.ID] = p.dur() - covered
	}
	return out
}

// stage is one replayed step of a request and its median self time.
type stage struct {
	Name  string
	P50us float64
}

// reconRow decomposes one phase's median request: the client sees
// handler + transport, and the handler is the replayed stages plus a gap
// (admission, coalescer wait and plumbing between stages).
type reconRow struct {
	Phase       string
	ClientP50   float64 // µs, client span
	HandlerP50  float64 // µs, server span
	TransportUs float64 // client - handler
	Stages      []stage
	StageSum    float64
	CoreSum     float64 // the core.* part of StageSum
	GapUs       float64 // handler - StageSum
}

// reconcile builds a reconciliation row from measured medians.
func reconcile(phase string, clientP50, handlerP50 float64, stages []stage) reconRow {
	r := reconRow{Phase: phase, ClientP50: clientP50, HandlerP50: handlerP50, Stages: stages}
	for _, s := range stages {
		r.StageSum += s.P50us
		if len(s.Name) > 5 && s.Name[:5] == "core." {
			r.CoreSum += s.P50us
		}
	}
	r.TransportUs = clientP50 - handlerP50
	r.GapUs = handlerP50 - r.StageSum
	return r
}

func (r reconRow) String() string {
	s := fmt.Sprintf("reconcile %-5s client_p50 %8.1fus = transport %8.1fus + handler_p50 %8.1fus; handler = stages %8.1fus (core %8.1fus) + gap %8.1fus [",
		r.Phase, r.ClientP50, r.TransportUs, r.HandlerP50, r.StageSum, r.CoreSum, r.GapUs)
	for i, st := range r.Stages {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%.1f", st.Name, st.P50us)
	}
	return s + "]"
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		rec := struct {
			ID     int64   `json:"id"`
			Parent int64   `json:"parent,omitempty"`
			Name   string  `json:"name"`
			Req    string  `json:"req,omitempty"`
			Start  int64   `json:"start_ns"`
			DurUs  float64 `json:"dur_us"`
		}{s.ID, s.Parent, s.Name, s.Req, s.Start.UnixNano(), math.Round(us(s.dur())*1000) / 1000}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
