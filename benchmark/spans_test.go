package main

import "testing"

// Self time is a span's duration minus the part of its interval its children
// cover: overlapping children count once, a child is clipped to its parent,
// and grandchildren only reduce their own parent.
func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "prove", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "synthesize", Start: 0, End: 1},
		{ID: 3, Parent: 1, Name: "plonkish_prove", Start: 1, End: 9},
		{ID: 4, Parent: 3, Name: "stage_commit", Start: 1, End: 3},
		{ID: 5, Parent: 3, Name: "stage_open", Start: 2, End: 6},    // overlaps stage_commit by 1
		{ID: 6, Parent: 3, Name: "stage_late", Start: 8.5, End: 12}, // runs past its parent's end
		{ID: 7, Parent: 0, Name: "verify", Start: 20, End: 21},
	}
	self := selfTimes(spans)
	want := map[int]float64{
		1: 10 - 1 - 8,       // synthesize + plonkish_prove
		2: 1,                // no children
		3: 8 - (2 + 3 + .5), // [1,3] + [3,6] + [8.5,9]
		4: 2,
		5: 4,
		6: 3.5,
		7: 1,
	}
	for id, w := range want {
		if !near(self[id], w) {
			t.Errorf("self time of span %d (%s) = %v; want %v", id, spans[id-1].Name, self[id], w)
		}
	}
}

func TestRecorderParentsAndRequests(t *testing.T) {
	r := newRecorder()
	root := r.begin(0, "req-1", "prove")
	child := r.begin(root, "req-1", "synthesize")
	r.end(child)
	stage := r.add(root, "req-1", "stage_commit", r.get(root).Start, 0.25)
	r.end(root)
	if got := r.get(child); got.Parent != root || got.Request != "req-1" || got.End < got.Start {
		t.Errorf("child span %+v does not point at its parent or closed before it opened", got)
	}
	if got := r.get(stage); !near(got.seconds(), 0.25) || got.Parent != root {
		t.Errorf("added span %+v; want 0.25 s under the root", got)
	}
	if root != 1 || child != 2 || stage != 3 {
		t.Errorf("span IDs %d, %d, %d; want 1, 2, 3", root, child, stage)
	}
}

// The waterfall's parts and its gap always add up to the total, whichever
// side the gap falls on.
func TestWaterfallCloses(t *testing.T) {
	for _, total := range []float64{4.0, 3.0} {
		w := newWaterfall(total,
			part{Name: "synthesize_s", Seconds: 0.5},
			part{Name: "stage_commit_s", Seconds: 1.25},
			part{Name: "stage_open_s", Seconds: 1.75})
		sum := w.Unattributed
		for _, p := range w.Parts {
			sum += p.Seconds
		}
		if !near(sum, total) {
			t.Errorf("parts + unattributed = %v; want the total %v", sum, total)
		}
		if !near(w.Unattributed, total-3.5) || !near(w.UnattributedShare, (total-3.5)/total) {
			t.Errorf("total %v: unattributed %v (share %v); want %v", total, w.Unattributed, w.UnattributedShare, total-3.5)
		}
		if !near(w.Parts[1].Share, 1.25/total) {
			t.Errorf("share of stage_commit_s = %v; want %v", w.Parts[1].Share, 1.25/total)
		}
	}
	if w := newWaterfall(0); w.UnattributedShare != 0 {
		t.Errorf("empty waterfall has share %v; want 0", w.UnattributedShare)
	}
}
