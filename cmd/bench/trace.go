package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call from the harness into a layer. Names are
// "<layer>.<call>", so the layer is the text before the first dot.
// Start and End are nanoseconds since the tracer was created; Parent
// is the id of the enclosing span, or -1 for a root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the untraced passes run the same harness code
// and pay only a nil check per call. It is not safe for concurrent
// use: code timed on other goroutines (the wire clients, the exec
// pool's observer) collects its own intervals and hands them over
// with add once it has been joined.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(parent int32, name string) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// add records a span whose interval was measured elsewhere.
func (t *tracer) add(parent int32, name string, start time.Time, d time.Duration) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	s := int64(start.Sub(t.t0))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: s, End: s + int64(d)})
	return id
}

// durations returns the length of every span called name, in order.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// total is the summed length of every span called name.
func (t *tracer) total(name string) time.Duration {
	var sum time.Duration
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// nest re-parents the spans ids (intervals reported by the exec
// pool's observer, which knows neither goroutine nor caller) by
// containment: a span's parent becomes the shortest span of strictly
// lower rank that covers it, where rank orders the pool's known
// nesting (candidate > score > bracket > point). Spans nothing covers
// keep the parent they were added with.
func (t *tracer) nest(ids []int32, rank func(name string) int) {
	byLen := append([]int32(nil), ids...)
	sort.Slice(byLen, func(i, j int) bool {
		a, b := t.spans[byLen[i]], t.spans[byLen[j]]
		return a.End-a.Start < b.End-b.Start
	})
	for _, id := range ids {
		s := &t.spans[id]
		for _, pid := range byLen {
			p := t.spans[pid]
			if pid != id && rank(p.Name) < rank(s.Name) && p.Start <= s.Start && s.End <= p.End {
				s.Parent = pid
				break
			}
		}
	}
}

// selfTimes returns, per layer, the summed self time of its spans: a
// span's length minus the part of it that its child spans cover
// (children may overlap each other when they ran on two workers).
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make(map[int32][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// traceFile is the on-disk form of one traced pass.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	SelfS    map[string]float64 `json:"self_s_by_layer"`
	Spans    []span             `json:"spans"`
}

// write stores the spans as trace-<workload>.json under dir.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	self := make(map[string]float64)
	for layer, d := range t.selfTimes() {
		self[layer] = d.Seconds()
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, SelfS: self, Spans: t.spans})
	if err != nil {
		return "", err
	}
	path := dir + "/trace-" + workload + ".json"
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
