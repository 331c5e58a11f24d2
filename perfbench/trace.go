package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary. Spans of one request share req; parent is the
// id of the span that caused this one (0 for a request's root span).
type span struct {
	id, parent int64
	req        int64
	name       string
	start, end time.Time
}

// tracer keeps spans in memory while tracing is on; they are written
// out once, when the run ends. With tracing off every method is a
// single branch and nothing is recorded.
type tracer struct {
	on     atomic.Bool
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

// untraced is never turned on: workloads that sample which requests
// they trace pass it for the others.
var untraced = &tracer{}

// id reserves a span id, so a parent can be named before it ends.
func (tr *tracer) id() int64 {
	if !tr.on.Load() {
		return 0
	}
	return tr.nextID.Add(1)
}

// add records a finished span under a reserved id (0 reserves one).
func (tr *tracer) add(id, parent, req int64, name string, start, end time.Time) {
	if !tr.on.Load() {
		return
	}
	if id == 0 {
		id = tr.nextID.Add(1)
	}
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{id: id, parent: parent, req: req, name: name, start: start, end: end})
	tr.mu.Unlock()
}

// timed runs fn inside a span.
func (tr *tracer) timed(parent, req int64, name string, fn func()) {
	if !tr.on.Load() {
		fn()
		return
	}
	start := time.Now()
	fn()
	tr.add(0, parent, req, name, start, time.Now())
}

// durations returns the lengths of all spans named name, in unit.
func (tr *tracer) durations(name string, unit time.Duration) []float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []float64
	for _, s := range tr.spans {
		if s.name == name {
			out = append(out, float64(s.end.Sub(s.start))/float64(unit))
		}
	}
	return out
}

// check verifies the span tree: every parent exists, shares the
// child's request id, and no child starts before or ends after it.
func (tr *tracer) check() error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	byID := make(map[int64]*span, len(tr.spans))
	for i := range tr.spans {
		byID[tr.spans[i].id] = &tr.spans[i]
	}
	for _, s := range tr.spans {
		if s.end.Before(s.start) {
			return fmt.Errorf("span %s ends before it starts", s.name)
		}
		if s.parent == 0 {
			continue
		}
		p, ok := byID[s.parent]
		if !ok {
			return fmt.Errorf("span %s: parent %d missing", s.name, s.parent)
		}
		if p.req != s.req {
			return fmt.Errorf("span %s: request %d under parent of request %d", s.name, s.req, p.req)
		}
		if s.start.Before(p.start) || s.end.After(p.end) {
			return fmt.Errorf("span %s [%v,%v] outlasts parent %s [%v,%v]",
				s.name, s.start, s.end, p.name, p.start, p.end)
		}
	}
	return nil
}

// selfTimes returns, for each root span named root, the part of its
// interval that its child spans do not cover, in unit.
func (tr *tracer) selfTimes(root string, unit time.Duration) []float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	kids := make(map[int64][]span)
	for _, s := range tr.spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	var out []float64
	for _, s := range tr.spans {
		if s.name != root || s.parent != 0 {
			continue
		}
		ks := kids[s.id]
		sort.Slice(ks, func(i, j int) bool { return ks[i].start.Before(ks[j].start) })
		covered := time.Duration(0)
		cur := s.start
		for _, k := range ks {
			from, to := k.start, k.end
			if from.Before(cur) {
				from = cur
			}
			if to.After(s.end) {
				to = s.end
			}
			if to.After(from) {
				covered += to.Sub(from)
				cur = to
			}
		}
		out = append(out, float64(s.end.Sub(s.start)-covered)/float64(unit))
	}
	return out
}

// write dumps the spans as tab-separated lines (id, parent, request,
// name, start and end in ns since t0).
func (tr *tracer) write(path string, t0 time.Time) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns")
	for _, s := range tr.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.req, s.name,
			s.start.Sub(t0).Nanoseconds(), s.end.Sub(t0).Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
