package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call (nothing inside the program is instrumented). Times are seconds
// since the recorder started. Parent is the ID of the span that caused
// this one, 0 for a root; spans of one request share Request.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Request string  `json:"request"`
	Name    string  `json:"name"`
	Start   float64 `json:"start_s"`
	End     float64 `json:"end_s"`
}

func (s span) seconds() float64 { return s.End - s.Start }

// recorder keeps spans in memory until the traced run ends. It is used from
// the one goroutine that drives the traced run.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() float64 { return time.Since(r.t0).Seconds() }

// begin opens a span and returns its ID.
func (r *recorder) begin(parent int, request, name string) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Request: request, Name: name, Start: r.now()})
	return id
}

// end closes a span and returns its duration in seconds.
func (r *recorder) end(id int) float64 {
	s := &r.spans[id-1]
	s.End = r.now()
	return s.seconds()
}

// add records a span whose interval was measured elsewhere (the prover's
// own stage report), placed at an offset inside its parent.
func (r *recorder) add(parent int, request, name string, start, seconds float64) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Request: request, Name: name, Start: start, End: start + seconds})
	return id
}

func (r *recorder) get(id int) span { return r.spans[id-1] }

// selfTimes maps each span to its duration minus the part of its interval
// that its child spans cover. Overlapping children are counted once and a
// child is clipped to its parent's interval.
func selfTimes(spans []span) map[int]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.seconds() - covered
	}
	return self
}

// part is one named term of a waterfall.
type part struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Share   float64 `json:"share"`
}

// waterfall splits a total into named parts plus the gap they leave:
// sum(parts) + unattributed == total, so the gap is itself a tracked number.
type waterfall struct {
	Total        float64 `json:"total_s"`
	Parts        []part  `json:"parts"`
	Unattributed float64 `json:"unattributed_s"`
	// UnattributedShare is Unattributed / Total.
	UnattributedShare float64 `json:"unattributed_share"`
}

func newWaterfall(total float64, parts ...part) waterfall {
	w := waterfall{Total: total, Unattributed: total}
	for _, p := range parts {
		if total != 0 {
			p.Share = p.Seconds / total
		}
		w.Parts = append(w.Parts, p)
		w.Unattributed -= p.Seconds
	}
	if total != 0 {
		w.UnattributedShare = w.Unattributed / total
	}
	return w
}
