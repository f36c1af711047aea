package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// offsets from the tracer's origin. A plain span covers Count == 1 call
// and Busy == End-Start. An aggregate span folds many short calls under
// one parent (the barrier drain runs once per lookahead window, far too
// often to keep a record per call): Start and End bound the first and
// last call, Busy sums the calls and Count numbers them.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root span
	Name   string        `json:"name"`
	Run    int           `json:"run"` // the round the span belongs to
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Busy   time.Duration `json:"busy_ns"`
	Count  int           `json:"count"`
}

// tracer records one round's spans in memory; the round process hands
// them to the parent, which writes them out once the run ends. A nil
// *tracer is the untraced run: step still times its function, records
// nothing, and installs no hooks.
type tracer struct {
	origin time.Time
	run    int
	spans  []span
	stack  []int // open plain spans, innermost last
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// step runs fn inside a span named name, nested under the innermost
// open span, and returns fn's wall time.
func (t *tracer) step(name string, fn func() error) (time.Duration, error) {
	if t == nil {
		start := time.Now()
		err := fn()
		return time.Since(start), err
	}
	id := len(t.spans)
	start := time.Since(t.origin)
	t.spans = append(t.spans, span{ID: id, Parent: t.parent(), Name: name, Run: t.run, Start: start, Count: 1})
	t.stack = append(t.stack, id)
	err := fn()
	end := time.Since(t.origin)
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[id]
	s.End, s.Busy = end, end-start
	return s.Busy, err
}

func (t *tracer) parent() int {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// aggregate opens an aggregate span under the innermost open span. It
// stays empty (Count 0) until the first call is added.
func (t *tracer) aggregate(name string) aggregateSpan {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: t.parent(), Name: name, Run: t.run})
	return aggregateSpan{t: t, id: id}
}

type aggregateSpan struct {
	t  *tracer
	id int
}

// add folds one call that began at start and ends now into the span.
func (a aggregateSpan) add(start time.Time) {
	s := &a.t.spans[a.id]
	from, to := start.Sub(a.t.origin), time.Since(a.t.origin)
	if s.Count == 0 {
		s.Start = from
	}
	s.End = to
	s.Busy += to - from
	s.Count++
}

// selfTimes returns each span's self time, indexed like spans: its busy
// time minus the busy time of its direct children. Children run on the
// caller's goroutine inside their parent, so their busy times never
// overlap one another and never exceed the parent's.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.Busy
		if s.Parent >= 0 {
			self[s.Parent] -= s.Busy
		}
	}
	return self
}

// layerTime is the busy time, self time and call count of every span of
// one name in a round.
type layerTime struct {
	busy, self time.Duration
	calls      int
}

// byName folds one round's spans, with their self times, by name.
func byName(spans []span, self []time.Duration) map[string]layerTime {
	out := map[string]layerTime{}
	for i, s := range spans {
		lt := out[s.Name]
		lt.busy += s.Busy
		lt.self += self[i]
		lt.calls += s.Count
		out[s.Name] = lt
	}
	return out
}

// writeSpans stores the spans of every round as one JSON list. Span
// identifiers are renumbered so they stay unique across rounds.
func writeSpans(path string, rounds []round) error {
	var all []span
	for _, r := range rounds {
		base := len(all)
		for _, s := range r.Spans {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			all = append(all, s)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc, err := json.Marshal(all)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, doc, 0o644)
}
