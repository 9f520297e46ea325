package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer of the
// program: its name names the layer and the call ("serve.step",
// "store.put"), Parent the span it ran inside (0 for none). Start and
// end are wall-clock offsets from the start of the run; CPUNS is the
// thread CPU time between them, which the per-layer figures use.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	CPUNS   int64  `json:"cpu_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so the untraced run pays one nil check per call.
type tracer struct {
	origin time.Time
	spans  []span
	stack  []int // open span ids, innermost last
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under the innermost open span and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		StartNS: int64(time.Since(t.origin)), CPUNS: int64(threadCPU())})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.CPUNS = int64(threadCPU()) - s.CPUNS
	s.EndNS = int64(time.Since(t.origin))
	t.stack = t.stack[:len(t.stack)-1]
}

// do runs f inside a span.
func (t *tracer) do(name string, f func()) {
	id := t.begin(name)
	f()
	t.end(id)
}

// durations returns the thread CPU times of every span called name, in
// microseconds.
func (t *tracer) durations(name string) samples {
	if t == nil {
		return nil
	}
	var out samples
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.CPUNS)/1e3)
		}
	}
	return out
}

// layerRow is one line of the per-layer table: all spans of one name,
// in thread CPU time.
type layerRow struct {
	Name     string
	Count    int
	MedianUS float64
	TotalMS  float64
	SelfMS   float64 // total minus the time covered by child spans
}

// table aggregates spans by name, slowest total first.
func (t *tracer) table() []layerRow {
	childNS := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			childNS[s.Parent] += s.CPUNS
		}
	}
	rows := map[string]*layerRow{}
	durs := map[string]samples{}
	for _, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		d := s.CPUNS
		r.Count++
		r.TotalMS += float64(d) / 1e6
		r.SelfMS += float64(d-childNS[s.ID]) / 1e6
		durs[s.Name] = append(durs[s.Name], float64(d)/1e3)
	}
	out := make([]layerRow, 0, len(rows))
	for name, r := range rows {
		r.MedianUS = durs[name].median()
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMS > out[j].TotalMS })
	return out
}

// printTable writes the per-layer table.
func (t *tracer) printTable(w io.Writer) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s %12s\n", "span", "count", "median_us", "total_ms", "self_ms")
	for _, r := range t.table() {
		fmt.Fprintf(w, "%-28s %8d %12.2f %12.2f %12.2f\n", r.Name, r.Count, r.MedianUS, r.TotalMS, r.SelfMS)
	}
}

// writeJSON writes every span to path.
func (t *tracer) writeJSON(path string) error {
	blob, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
