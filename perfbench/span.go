package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of the traced run. Spans are recorded by the
// benchmark around its calls into the simulator's layers; the program
// itself is not instrumented. A batch span covers one batch of calls
// (trace.DefaultBatchSize references), so the two clock reads it costs are
// far below the work it times.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	StartNs  int64  `json:"start_ns"` // since the recorder started
	EndNs    int64  `json:"end_ns"`
	SelfNs   int64  `json:"self_ns"` // filled in when the spans are written
}

// recorder keeps every span in memory until the run ends. rep numbers the
// repetitions of a rung that runs more than once; it is 1 elsewhere.
type recorder struct {
	t0       time.Time
	workload string
	rep      int
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{t0: time.Now(), workload: workload, rep: 1}
}

func (r *recorder) begin(name string, parent int) int {
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name,
		Workload: r.workload, Rep: r.rep, StartNs: int64(time.Since(r.t0)),
	})
	return len(r.spans)
}

func (r *recorder) end(id int) { r.spans[id-1].EndNs = int64(time.Since(r.t0)) }

func (r *recorder) dur(id int) int64 { s := r.spans[id-1]; return s.EndNs - s.StartNs }

// spanCostNs is what recording one span costs: the mean over many
// begin/end pairs on a throwaway recorder.
func spanCostNs() float64 {
	const n = 1 << 16
	r := newRecorder("calibrate")
	t0 := time.Now()
	for range n {
		r.end(r.begin("span", 0))
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

// childNs sums the durations of id's direct children.
func (r *recorder) childNs(id int) int64 {
	var sum int64
	for _, s := range r.spans[id:] {
		if s.Parent == id {
			sum += s.EndNs - s.StartNs
		}
	}
	return sum
}

// write stores the spans as one JSON array, each with its self time: its
// duration minus the time its children cover.
func (r *recorder) write(path string) error {
	child := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		s.SelfNs = s.EndNs - s.StartNs - child[s.ID]
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
