package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Spans are recorded by
// the benchmark only, around its calls into exported functions; times are
// host nanoseconds since the recorder was made, except on serve_mix, whose
// concurrent requests interleave on the host clock under the simulator and
// are therefore recorded in model nanoseconds (Clock says which).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root
	Query    int    `json:"query"`  // spans of one operation share it; -1 outside any
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Clock    string `json:"clock"` // "host" or "model"
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced runs call the same code.
type recorder struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{t0: time.Now(), workload: workload}
}

func (r *recorder) begin(name string, parent, query int) int {
	if r == nil {
		return -1
	}
	return r.add(span{Parent: parent, Query: query, Name: name, Clock: "host", StartNs: int64(time.Since(r.t0))})
}

// beginAt opens a span at instant at of the model clock.
func (r *recorder) beginAt(name string, parent, query int, at int64) int {
	if r == nil {
		return -1
	}
	return r.add(span{Parent: parent, Query: query, Name: name, Clock: "model", StartNs: at})
}

func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID, s.Workload, s.EndNs = len(r.spans), r.workload, -1
	r.spans = append(r.spans, s)
	return s.ID
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.endAt(id, int64(time.Since(r.t0)))
}

func (r *recorder) endAt(id int, at int64) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	r.spans[id].EndNs = at
	r.mu.Unlock()
}

// timed records fn as one span.
func (r *recorder) timed(name string, parent, query int, fn func() error) error {
	id := r.begin(name, parent, query)
	err := fn()
	r.end(id)
	return err
}

func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// named returns the durations, in ns, of every finished span called name.
func named(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.EndNs >= 0 {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// selfNs is a span's duration minus the part of its interval that its
// direct children cover. Children may overlap each other (concurrent
// procs) and may stick out of the parent; only their union inside the
// parent counts.
func selfNs(spans []span, id int) int64 {
	p := spans[id]
	type iv struct{ a, b int64 }
	var kids []iv
	for _, s := range spans {
		if s.Parent != id || s.EndNs < 0 {
			continue
		}
		a, b := s.StartNs, s.EndNs
		if a < p.StartNs {
			a = p.StartNs
		}
		if b > p.EndNs {
			b = p.EndNs
		}
		if b > a {
			kids = append(kids, iv{a, b})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].a < kids[j].a })
	covered, edge := int64(0), p.StartNs
	for _, k := range kids {
		if k.b <= edge {
			continue
		}
		if k.a > edge {
			edge = k.a
		}
		covered += k.b - edge
		edge = k.b
	}
	return p.dur() - covered
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
