package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced run, recorded by the benchmark
// around a call into one layer. Spans of one operation share Op; Parent
// is the ID of the enclosing span (0 for an operation's root).
type span struct {
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"startNs"` // offset from the recorder's origin
	EndNS   int64  `json:"endNs"`
}

func (s span) durNS() int64 { return s.EndNS - s.StartNS }

// recorder keeps a traced run's spans in memory until the run ends.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// add records one span and returns its ID.
func (r *recorder) add(op, parent int, name string, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{Op: op, ID: id, Parent: parent, Name: name,
		StartNS: start.Sub(r.origin).Nanoseconds(), EndNS: end.Sub(r.origin).Nanoseconds()})
	return id
}

// kid is a child span timed before its parent's ID exists.
type kid struct {
	name       string
	start, end time.Time
}

// addTree records a root span and its children, returning the root's ID.
func (r *recorder) addTree(op int, name string, start, end time.Time, kids []kid) int {
	root := r.add(op, 0, name, start, end)
	for _, k := range kids {
		r.add(op, root, k.name, k.start, k.end)
	}
	return root
}

// children returns the spans whose parent is id.
func (r *recorder) children(id int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// get returns the span with the given ID.
func (r *recorder) get(id int) span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1]
}

// selfNS is a span's self time: its duration minus the part of its
// interval that its children cover. Overlapping children (parallel
// work) are counted once, and child time outside the parent is ignored.
func selfNS(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.StartNS, parent.StartNS), min(c.EndNS, parent.EndNS)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64
	end = parent.StartNS
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return parent.durNS() - covered
}

// write saves every span as one JSON object per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
