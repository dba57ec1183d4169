package core

import (
	"sync"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/fixedpoint"
	"repro/internal/gadgets"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pcs"
)

// benchOptions are the options the benchmark compiles every workload with:
// the static calibration (the same plan on every machine), scale 6, lookup
// 10, 6–24 advice columns.
func benchOptions(backend pcs.Backend) Options {
	opt := DefaultOptions(backend, fixedpoint.Params{ScaleBits: 6, LookupBits: 10})
	opt.MinCols, opt.MaxCols = 6, 24
	opt.Calibration = costmodel.StaticCalibration()
	return opt
}

var (
	benchPlansMu sync.Mutex
	benchPlans   = map[string]*Plan{}
)

// benchPlan optimizes a bundled model under benchOptions, once per model and
// backend per test binary.
func benchPlan(t *testing.T, name string, backend pcs.Backend) *Plan {
	t.Helper()
	benchPlansMu.Lock()
	defer benchPlansMu.Unlock()
	key := name + "/" + backend.String()
	if p, ok := benchPlans[key]; ok {
		return p
	}
	spec, err := model.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	p, _, _, err := Optimize(spec.Build(), spec.Input(1), benchOptions(backend))
	if err != nil {
		t.Fatal(err)
	}
	benchPlans[key] = p
	return p
}

// pinnedChoice is the part of a plan a cost-model change can flip.
type pinnedChoice struct {
	NumCols, K  int
	Dot         gadgets.DotStrategy
	UseConstDot bool
}

// pinnedChoices are the optimizer's choices under benchOptions, on both
// backends unless pinnedIPA overrides them. The benchmark's goldens (k,
// advice columns, proof bytes) follow from them.
var pinnedChoices = map[string]pinnedChoice{
	"diffusion-micro": {6, 12, gadgets.DotBias, true},
	"dlrm-micro":      {6, 11, gadgets.DotBias, false},
	"gpt2-micro":      {9, 11, gadgets.DotBias, false},
	"lstm-micro":      {6, 11, gadgets.DotSum, false},
	"mnist":           {8, 11, gadgets.DotBias, true},
	"mobilenet-micro": {10, 13, gadgets.DotBias, true},
	"resnet-micro":    {14, 14, gadgets.DotBias, true},
	"twitter-micro":   {6, 11, gadgets.DotBias, false},
	"vgg-micro":       {13, 13, gadgets.DotBias, true},
}

// pinnedIPA holds the IPA choices that differ from pinnedChoices. An IPA
// opening is priced as it runs, 2·k fixed-base MSMs over the whole basis,
// so halving the rows saves more on IPA than on KZG, and diffusion-micro's
// IPA plan trades rows for columns: 14 at 2^11 instead of 6 at 2^12
// (EXPERIMENTS.md, "An IPA opening that never folds the basis", times both).
var pinnedIPA = map[string]pinnedChoice{
	"diffusion-micro": {14, 11, gadgets.DotBias, true},
}

// TestOptimizerChoicesPinned holds the optimizer's choice for every bundled
// model on both backends, so a cost-model change cannot flip a plan
// silently. A deliberate change updates the table and says why.
func TestOptimizerChoicesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizes every bundled model on both backends")
	}
	if len(pinnedChoices) != len(model.Names()) {
		t.Fatalf("%d pinned models, %d bundled", len(pinnedChoices), len(model.Names()))
	}
	for _, name := range model.Names() {
		want, ok := pinnedChoices[name]
		if !ok {
			t.Fatalf("no pinned choice for %s", name)
		}
		for _, backend := range []pcs.Backend{pcs.KZG, pcs.IPA} {
			want := want
			if ipa, ok := pinnedIPA[name]; ok && backend == pcs.IPA {
				want = ipa
			}
			p := benchPlan(t, name, backend)
			got := pinnedChoice{p.Config.NumCols, p.K, p.Config.Dot, p.Config.UseConstDot}
			if got != want {
				t.Errorf("%s/%v: optimizer chose %+v, pinned %+v", name, backend, got, want)
			}
		}
	}
}

// TestShapeMatchesTrace checks every count the cost model prices against a
// traced prove of the same plan: transforms and MSMs by size (commitments
// and IPA fold rounds, all on the fixed-base path), openings and the
// quotient program, and that ProofBytes is the proof's size. Under -short
// only mnist is proved.
func TestShapeMatchesTrace(t *testing.T) {
	names := model.Names()
	if testing.Short() {
		names = []string{"mnist"}
	}
	for _, name := range names {
		for _, backend := range []pcs.Backend{pcs.KZG, pcs.IPA} {
			p := benchPlan(t, name, backend)
			keys, err := p.Setup()
			if err != nil {
				t.Fatal(err)
			}
			proof, rep, err := p.ProveTraced(keys, p.Sample)
			if err != nil {
				t.Fatal(err)
			}
			s := p.Layout
			wantFFT := map[int]int64{s.K: 0}
			wantFixed := map[int]int64{s.K: 0}
			for st := obs.Stage(0); st < obs.NumStages; st++ {
				wantFFT[s.K] += int64(s.Transforms[st])
				wantFixed[s.K] += int64(s.Commits[st])
			}
			wantFixed[s.K] += int64(2 * s.FoldRounds * s.Opens)
			wantMSM := map[int]int64{s.K: wantFixed[s.K]}
			where := name + "/" + backend.String()
			checkHistogram(t, where+" FFTs", rep.FFTBySize, wantFFT)
			checkHistogram(t, where+" MSMs", rep.MSMBySize, wantMSM)
			checkHistogram(t, where+" fixed-base MSMs", rep.FixedMSMBySize, wantFixed)
			if rep.Opens != int64(s.Opens) || rep.QuotientOps != s.Ops || rep.QuotientVaryingOps != s.VaryingOps {
				t.Errorf("%s: shape has %d openings and %d/%d program ops, trace %d and %d/%d",
					where, s.Opens, s.Ops, s.VaryingOps, rep.Opens, rep.QuotientOps, rep.QuotientVaryingOps)
			}
			if size := proof.Proof.Size(); s.ProofBytes != size {
				t.Errorf("%s: ProofBytes %d, proof.Size() %d", where, s.ProofBytes, size)
			}
		}
	}
}

func checkHistogram(t *testing.T, what string, got []obs.SizeCount, want map[int]int64) {
	t.Helper()
	have := map[int]int64{}
	for _, b := range got {
		have[b.Log2Size] = b.Count
	}
	for k, c := range want {
		if c == 0 {
			delete(want, k)
		}
	}
	if len(have) != len(want) {
		t.Errorf("%s: traced %v, shape counts %v", what, have, want)
		return
	}
	for k, c := range want {
		if have[k] != c {
			t.Errorf("%s: traced %v, shape counts %v", what, have, want)
			return
		}
	}
}
