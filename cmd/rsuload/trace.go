package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call recorded by the benchmark around a public
// entry point. Spans of one solve or job share a trace id; Parent is
// the id of the enclosing span, 0 for a root.
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine only. A tracer that is off records nothing and returns id 0.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span now and returns its id.
func (t *tracer) begin(name string, trace, parent int) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{Name: name, Trace: trace, ID: len(t.spans) + 1, Parent: parent,
		Start: int64(time.Since(t.epoch))})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id > 0 {
		t.spans[id-1].End = int64(time.Since(t.epoch))
	}
}

// interval records a span whose bounds were observed rather than
// bracketed, such as a queue wait seen through polling.
func (t *tracer) interval(name string, trace, parent int, from, to time.Time) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{Name: name, Trace: trace, ID: len(t.spans) + 1, Parent: parent,
		Start: int64(from.Sub(t.epoch)), End: int64(to.Sub(t.epoch))})
	return len(t.spans)
}

// durations returns the durations in ms of every span with this name in
// traces numbered minTrace or above.
func (t *tracer) durations(name string, minTrace int) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Trace >= minTrace {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children are clipped to the parent, and
// overlapping children count once.
func selfTimes(spans []span) []int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		covered, reach := int64(0), s.Start
		for _, iv := range ivs {
			lo, hi := max(iv[0], reach), min(iv[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerOf maps a span name to the module it measures: the prefix before
// the first dot, or loadgen for the benchmark's own spans.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "loadgen"
}

// selfByLayer sums self time per layer, in ms.
func selfByLayer(spans []span) map[string]float64 {
	out := map[string]float64{}
	for i, st := range selfTimes(spans) {
		out[layerOf(spans[i].Name)] += float64(st) / 1e6
	}
	return out
}

// writeSpans dumps the spans and their per-layer self time as JSON.
func writeSpans(path, workload string, spans []span) error {
	data, err := json.MarshalIndent(struct {
		Workload    string             `json:"workload"`
		SelfMSLayer map[string]float64 `json:"self_ms_by_layer"`
		Spans       []span             `json:"spans"`
	}{workload, selfByLayer(spans), spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanCost measures what recording one span costs, for the trace
// overhead estimate.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer(true)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x", 1, 0))
	}
	return time.Since(t0) / n
}
