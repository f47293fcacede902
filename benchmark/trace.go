package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// spanRecord is one finished span: a call the benchmark made into a
// layer's public API. Start and End are offsets from the tracer's epoch.
// Spans of one function or batch share the Root identifier.
type spanRecord struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Root   int64         `json:"root"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []spanRecord
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// span is an open span; end closes it. A nil *span is a no-op.
type span struct {
	t   *tracer
	rec spanRecord
}

// start opens a span named name under parent (nil for a root span).
func (t *tracer) start(parent *span, name string) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	rec := spanRecord{ID: id, Root: id, Name: name, Start: time.Since(t.epoch)}
	if parent != nil {
		rec.Parent = parent.rec.ID
		rec.Root = parent.rec.Root
	}
	return &span{t: t, rec: rec}
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.rec.End = time.Since(s.t.epoch)
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.rec)
	s.t.mu.Unlock()
}

// dur is the duration of an ended span (0 for a nil span).
func (s *span) dur() time.Duration {
	if s == nil {
		return 0
	}
	return s.rec.End - s.rec.Start
}

// now is the current offset from the tracer's epoch (0 for a nil
// tracer).
func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

// records returns the finished spans ordered by start time.
func (t *tracer) records() []spanRecord { return t.recordsSince(0) }

// recordsSince returns the finished spans that started at or after the
// offset from, ordered by start time.
func (t *tracer) recordsSince(from time.Duration) []spanRecord {
	var out []spanRecord
	t.mu.Lock()
	for _, s := range t.spans {
		if s.Start >= from {
			out = append(out, s)
		}
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// writeJSONL writes the finished spans to path, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range t.records() {
		if err := enc.Encode(&r); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children that overlap each
// other (parallel calls) are counted once.
func selfTimes(spans []spanRecord) map[int64]time.Duration {
	children := map[int64][]spanRecord{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent spanRecord, kids []spanRecord) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// selfByName sums self time per span name.
func selfByName(spans []spanRecord) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}
