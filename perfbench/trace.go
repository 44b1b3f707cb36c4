package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer. Times are nanoseconds since the tracer's origin.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root span
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Pass     int    `json:"pass"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per span.
type tracer struct {
	mu       sync.Mutex
	origin   time.Time
	workload string
	pass     int
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{origin: time.Now(), workload: workload}
}

// setPass labels the spans that follow with a pass number.
func (t *tracer) setPass(p int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.pass = p
	t.mu.Unlock()
}

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, Workload: t.workload, Pass: t.pass})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// total sums the durations of the spans named name whose parent is the
// span parent.
func (t *tracer) total(name string, parent int) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum int64
	for _, s := range t.spans[parent:] {
		if s.Name == name && s.Parent == parent {
			sum += s.End - s.Start
		}
	}
	return time.Duration(sum)
}

// layerTime is the aggregate of all spans of one name.
type layerTime struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNS int64  `json:"total_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of it covered by the union of its children's intervals.
func (t *tracer) selfTimes() []layerTime {
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byName := map[string]*layerTime{}
	var order []string
	for _, s := range t.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
			order = append(order, s.Name)
		}
		dur := s.End - s.Start
		lt.Count++
		lt.TotalNS += dur
		lt.SelfNS += dur - covered(children[s.ID], s.Start, s.End)
	}
	out := make([]layerTime, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// write stores every span and the per-name self times as one JSON file.
func (t *tracer) write(path string) error {
	doc := struct {
		Workload string      `json:"workload"`
		Layers   []layerTime `json:"layers"`
		Spans    []span      `json:"spans"`
	}{t.workload, t.selfTimes(), t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
