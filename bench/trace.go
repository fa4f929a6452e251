package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one recorded interval. Parent is the ID of the span that caused
// it, or -1 for a root; spans of one request share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory and writes them out when the run ends. It
// wraps only calls made from this package into the layers; a nil *recorder
// records nothing, which is how the untraced run shares the workload code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID (-1 from a nil recorder).
func (r *recorder) begin(name string, parent int, req int64) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	r.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	count int
	total time.Duration // sum of durations
	self  time.Duration // total minus the part child spans cover
	durs  []time.Duration
}

// aggregate groups closed spans by name and computes self time as duration
// minus the union of the children's intervals clipped to the parent.
func (r *recorder) aggregate() map[string]*spanStats {
	out := map[string]*spanStats{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]int, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	for _, s := range r.spans {
		if s.End < 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		dur := time.Duration(s.End - s.Start)
		st.count++
		st.total += dur
		st.durs = append(st.durs, dur)
		st.self += dur - r.coveredLocked(s, children[s.ID])
	}
	return out
}

// coveredLocked returns how much of parent's interval its children cover.
// Children are recorded in start order (IDs grow with time), so one sweep
// merges overlaps.
func (r *recorder) coveredLocked(parent span, kids []int) time.Duration {
	var covered, hi int64
	hi = parent.Start
	for _, id := range kids {
		k := r.spans[id]
		if k.End < 0 {
			continue
		}
		lo, end := max(k.Start, hi), min(k.End, parent.End)
		if end > lo {
			covered += end - lo
			hi = end
		}
	}
	return time.Duration(covered)
}

// check reports what makes a trace unusable: an unclosed span, a parent
// that was never recorded, a child that starts before its parent, or a
// negative self time.
func (r *recorder) check() []string {
	var bad []string
	r.mu.Lock()
	for _, s := range r.spans {
		switch {
		case s.End < s.Start:
			bad = append(bad, fmt.Sprintf("span %d %q never ended", s.ID, s.Name))
		case s.Parent >= len(r.spans) || s.Parent < -1:
			bad = append(bad, fmt.Sprintf("span %d %q names unrecorded parent %d", s.ID, s.Name, s.Parent))
		case s.Parent >= 0 && r.spans[s.Parent].Start > s.Start:
			bad = append(bad, fmt.Sprintf("span %d %q starts before its parent", s.ID, s.Name))
		}
	}
	r.mu.Unlock()
	agg := r.aggregate()
	for _, name := range slices.Sorted(maps.Keys(agg)) {
		if agg[name].self < 0 {
			bad = append(bad, fmt.Sprintf("spans %q have negative self time %v", name, agg[name].self))
		}
	}
	return bad
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return w.Flush()
}
