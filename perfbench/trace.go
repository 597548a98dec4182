package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"time"
)

// span is one interval recorded by the benchmark around a call into the
// program. Op groups the spans of one op; Parent is the ID of the span that
// caused it (-1 for an op span).
type span struct {
	ID, Parent, Op int
	Name           string
	Start, End     time.Duration // since the tracer's epoch
	// Placed marks an interval the program reported as a duration only
	// (ExecStats phases, server elapsed/queue seconds) and the benchmark
	// positioned inside its parent.
	Placed bool
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing and reads no clock: the untraced run passes nil.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its ID (-1 on a nil tracer).
func (t *tracer) add(name string, parent, op int, start, end time.Time, placed bool) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch), Placed: placed})
	t.mu.Unlock()
	return id
}

// setEnd closes a span recorded before its end was known.
func (t *tracer) setEnd(id int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].End = end.Sub(t.epoch)
	t.mu.Unlock()
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Name        string  `json:"name"`
	Count       int     `json:"count"`
	TotalMs     float64 `json:"total_ms"`
	SelfMs      float64 `json:"self_ms"`
	SelfPerOpMs float64 `json:"self_per_op_ms"`
}

// traceSummary is what the traced run reports about its own spans.
type traceSummary struct {
	Layers []layerTime
	// Coverage is the share of op-span time covered by the ops' child
	// spans; UnexplainedMs is the median per-op remainder.
	Coverage      float64
	UnexplainedMs float64
	Ops           int
}

// covered returns how much of [lo, hi) the given intervals cover, counting
// overlaps once.
func covered(lo, hi time.Duration, iv [][2]time.Duration) time.Duration {
	slices.SortFunc(iv, func(a, b [2]time.Duration) int { return int(a[0] - b[0]) })
	var sum time.Duration
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			sum += e - s
			cur = e
		}
	}
	return sum
}

// summarize computes per-name self time (a span minus the part of it its
// children cover) and the per-op unexplained remainder.
func (t *tracer) summarize() traceSummary {
	children := make(map[int][][2]time.Duration)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	rows := map[string]*layerTime{}
	var opTotal, opCovered time.Duration
	var unexplained []float64
	for _, s := range t.spans {
		dur := s.End - s.Start
		cov := covered(s.Start, s.End, children[s.ID])
		r := rows[s.Name]
		if r == nil {
			r = &layerTime{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.TotalMs += ms(dur)
		r.SelfMs += ms(dur - cov)
		if s.Parent < 0 {
			opTotal += dur
			opCovered += cov
			unexplained = append(unexplained, ms(dur-cov))
		}
	}
	sum := traceSummary{Ops: len(unexplained), UnexplainedMs: medianOr(unexplained)}
	if opTotal > 0 {
		sum.Coverage = float64(opCovered) / float64(opTotal)
	}
	for _, r := range rows {
		if sum.Ops > 0 {
			r.SelfPerOpMs = r.SelfMs / float64(sum.Ops)
		}
		sum.Layers = append(sum.Layers, *r)
	}
	sort.Slice(sum.Layers, func(i, j int) bool { return sum.Layers[i].SelfMs > sum.Layers[j].SelfMs })
	return sum
}

// writeSelfTimes prints the self-time table, largest self time first.
func writeSelfTimes(w io.Writer, sum traceSummary) {
	fmt.Fprintf(w, "%-24s %8s %12s %12s %14s\n", "span", "count", "total_ms", "self_ms", "self/op_ms")
	for _, r := range sum.Layers {
		fmt.Fprintf(w, "%-24s %8d %12.3f %12.3f %14.4f\n", r.Name, r.Count, r.TotalMs, r.SelfMs, r.SelfPerOpMs)
	}
	fmt.Fprintf(w, "ops %d, child coverage %.4f, unexplained per op (median) %.4f ms\n",
		sum.Ops, sum.Coverage, sum.UnexplainedMs)
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (loadable in
// Perfetto or chrome://tracing), one lane per op.
func (t *tracer) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Op,
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op, "placed": s.Placed},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}
