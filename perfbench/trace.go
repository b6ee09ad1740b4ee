package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one request share req; a root
// span has parent 0. attrs holds counters read at the span's boundaries.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Req    int64              `json:"req"`
	Name   string             `json:"name"`
	Start  time.Duration      `json:"start_ns"`
	End    time.Duration      `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// tracer keeps every span of a traced run in memory; write dumps them at
// the end. A nil *tracer records nothing, so untraced runs pass nil.
// Spans may start and end on different goroutines (the HTTP handler
// runs on the server's), hence the mutex.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id (0 for a nil tracer).
func (t *tracer) start(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.dur()
}

// attr records a counter on span id.
func (t *tracer) attr(id int, key string, v float64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	if s.Attrs == nil {
		s.Attrs = map[string]float64{}
	}
	s.Attrs[key] = v
}

// child returns the last span named name whose parent is parent.
func (t *tracer) child(parent int, name string) (span, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0; i-- {
		if s := t.spans[i]; s.Parent == parent && s.Name == name {
			return s, true
		}
	}
	return span{}, false
}

// summary is the aggregate view of a finished trace.
type summary struct {
	// self sums the self time of the spans of each name; count counts them.
	self  map[string]time.Duration
	count map[string]int
	// rootTotal is the summed duration of every root span; rootSelf the
	// part of it no child span covers (the unattributed time).
	rootTotal, rootSelf time.Duration
}

// summarize computes every span's self time — its duration minus the
// part of its interval its children cover — and aggregates by name.
// Child spans lie within their parents, so the self times of a root's
// tree sum to the root's duration.
func (t *tracer) summarize() summary {
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := summary{self: map[string]time.Duration{}, count: map[string]int{}}
	self := selfTimes(t.spans)
	for i := range t.spans {
		s := &t.spans[i]
		sum.self[s.Name] += self[i]
		sum.count[s.Name]++
		if s.Parent == 0 {
			sum.rootTotal += s.dur()
			sum.rootSelf += self[i]
		}
	}
	return sum
}

// selfTimes returns, per span, its duration minus the union of its
// children's intervals clipped to it.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i := range spans {
		s := &spans[i]
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, c := range children[s.ID] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB time.Duration
		for j, v := range ivs {
			if j == 0 || v.a > curB {
				covered += curB - curA
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		covered += curB - curA
		out[i] = s.dur() - covered
	}
	return out
}

// write dumps every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
