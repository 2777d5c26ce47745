package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the index of the enclosing span, -1 for a request's root.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; they are written out when the run ends.
// Safe for concurrent use: a batch sweep records from the collector's
// goroutine while its requesters record from theirs.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(name string, req, parent int) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: now, End: -1})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// snapshot returns a copy of every span in begin order, so Parent
// indices stay valid; a span not yet ended has End -1.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile writes one JSON span per line.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, for every finished span, its duration minus the
// length of the union of its finished children's intervals clipped to
// the span. Children may overlap each other (concurrent children) and
// may outlive the parent (a detached sweep); neither is counted twice
// or outside the parent.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		var iv [][2]int64
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		out[i] = s.dur() - time.Duration(unionLength(iv))
	}
	return out
}

// unionLength is the total length covered by a set of half-open
// intervals.
func unionLength(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerTimes groups finished spans by name: their durations and self
// times, in microseconds.
type layerTimes struct {
	dur, self map[string][]float64
}

func groupSpans(spans []span) layerTimes {
	self := selfTimes(spans)
	lt := layerTimes{dur: map[string][]float64{}, self: map[string][]float64{}}
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		lt.dur[s.Name] = append(lt.dur[s.Name], us(s.dur()))
		lt.self[s.Name] = append(lt.self[s.Name], us(self[i]))
	}
	return lt
}

func (lt layerTimes) String() string {
	names := make([]string, 0, len(lt.dur))
	for n := range lt.dur {
		names = append(names, n)
	}
	sort.Strings(names)
	var b []byte
	for _, n := range names {
		b = fmt.Appendf(b, "  %-22s n=%-6d dur_p50=%9.1fus self_p50=%9.1fus\n",
			n, len(lt.dur[n]), percentile(lt.dur[n], 50), percentile(lt.self[n], 50))
	}
	return string(b)
}
