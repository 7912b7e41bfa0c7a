package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// A span is one timed call from the benchmark into a layer's public
// function. Spans of one op share Op, the index of the op's root span;
// Parent is the index of the span that caused this one, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the tracer's epoch
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the workload ends. A nil tracer
// records nothing, so untraced ops run the same code with every begin and
// end reduced to a nil check. A tracer belongs to one goroutine; concurrent
// clients each hold their own and merge them afterwards.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// begin opens a span under parent (-1 opens an op) and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	op := id
	if parent >= 0 {
		op = t.spans[parent].Op
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, Start: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.epoch))
	}
}

// merge appends o's spans, re-basing their indices.
func (t *tracer) merge(o *tracer) {
	base := len(t.spans)
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		s.Op += base
		t.spans = append(t.spans, s)
	}
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover. Children of one parent are issued
// sequentially by one goroutine, so their intervals never overlap and the
// covered part is the sum of their durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// layerStat sums one span name over a trace.
type layerStat struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func layerStats(spans []span) []layerStat {
	self := selfTimes(spans)
	byName := map[string]*layerStat{}
	for i, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &layerStat{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		st.TotalS += float64(s.End-s.Start) / 1e9
		st.SelfS += float64(self[i]) / 1e9
	}
	out := make([]layerStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfS > out[j].SelfS })
	return out
}

// durations returns the seconds of every span called name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// traceFile is what a traced run writes when its workload ends.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Layers   []layerStat `json:"layers"`
	Spans    []span      `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
