package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/curve"
	"repro/internal/fixedpoint"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pcs"
	"repro/internal/poly"
	"repro/internal/zkerrors"
)

// artifactFixture is one valid encoded artifact per backend: dlrm-micro at a
// small numeric format, so the SRS section (and every fuzz input grown from
// it) stays a few hundred points.
type artifactFixture struct {
	g    *model.Graph
	in   *model.Input
	plan *Plan
	keys *Keys
	data []byte
	err  error
}

var (
	artifactOnce     sync.Once
	artifactFixtures map[pcs.Backend]*artifactFixture
)

func artifactFor(tb testing.TB, backend pcs.Backend) *artifactFixture {
	tb.Helper()
	artifactOnce.Do(func() {
		artifactFixtures = map[pcs.Backend]*artifactFixture{}
		spec, _ := model.Get("dlrm-micro")
		for _, b := range []pcs.Backend{pcs.KZG, pcs.IPA} {
			fx := &artifactFixture{g: spec.Build(), in: spec.Input(1)}
			opt := DefaultOptions(b, fixedpoint.Params{ScaleBits: 4, LookupBits: 7})
			opt.Calibration = costmodel.StaticCalibration()
			fx.plan, _, _, fx.err = Optimize(fx.g, fx.in, opt)
			if fx.err == nil {
				fx.keys, fx.err = fx.plan.Setup()
			}
			if fx.err == nil {
				fx.data, fx.err = EncodeArtifact(ArtifactMeta{ModelHash: [32]byte{1}, Options: [32]byte{2}}, fx.plan, fx.keys)
			}
			artifactFixtures[b] = fx
		}
	})
	fx := artifactFixtures[backend]
	if fx.err != nil {
		tb.Fatalf("building the %v artifact fixture: %v", backend, fx.err)
	}
	return fx
}

// TestArtifactRejectsTamperedCommitment: a stored commitment that decodes
// to a valid point but is not the column's commitment is caught by the
// verifying-key digest on both load paths before any FFT, and an artifact of
// an older version is rejected by the magic rather than half-decoded.
func TestArtifactRejectsTamperedCommitment(t *testing.T) {
	fx := artifactFor(t, pcs.KZG)
	data := fx.data
	if data[7] != ArtifactVersion || ArtifactVersion != 3 {
		t.Fatalf("artifact magic version %d, want 3", data[7])
	}
	af, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := af.Instantiate(fx.g, fx.in); err != nil {
		t.Fatalf("untampered artifact: %v", err)
	}

	gen := curve.Generator()
	c := af.FixedCommits[0].ToJac()
	c.AddMixed(&gen)
	af.FixedCommits[0] = c.ToAffine()
	for name, load := range map[string]func(*model.Graph, *model.Input) (*Plan, *Keys, error){
		"Instantiate":         af.Instantiate,
		"InstantiateVerifier": af.InstantiateVerifier,
	} {
		var counters obs.KernelCounters
		prev := poly.SetKernelTrace(&counters)
		_, _, err := load(fx.g, fx.in)
		poly.SetKernelTrace(prev)
		if !errors.Is(err, zkerrors.ErrMalformedArtifact) {
			t.Fatalf("%s with a tampered commitment: got %v, want ErrMalformedArtifact", name, err)
		}
		var ffts int64
		for i := range counters.FFT {
			ffts += counters.FFT[i].Load()
		}
		if ffts != 0 {
			t.Fatalf("%s ran %d FFTs before rejecting a tampered commitment, want 0", name, ffts)
		}
	}

	for _, v := range []byte{1, 2} {
		old := append([]byte(nil), data...)
		old[7] = v
		if _, err := DecodeArtifact(old); !errors.Is(err, zkerrors.ErrMalformedArtifact) {
			t.Fatalf("v%d artifact: got %v, want ErrMalformedArtifact", v, err)
		}
	}
}

// offCurve returns a 32-byte encoding whose x coordinate is in range but has
// no point on the curve above it.
func offCurve(t *testing.T) [32]byte {
	for x := byte(1); x != 0; x++ {
		var b [32]byte
		b[31] = x
		var p curve.Affine
		if p.SetBytes(b) != nil {
			return b
		}
	}
	t.Fatal("no off-curve x below 256")
	return [32]byte{}
}

// TestDecodeArtifactRejectsCorruption is the corruption matrix of the one
// artifact decoder: truncation at every section boundary, counts larger than
// the bytes left, points that are not points, other versions, trailing bytes
// and out-of-range header fields all fail DecodeArtifact, and an SRS section
// one point short or long decodes but fails both load paths before the grid
// is allocated. Every rejection wraps ErrMalformedArtifact.
func TestDecodeArtifactRejectsCorruption(t *testing.T) {
	for _, backend := range []pcs.Backend{pcs.KZG, pcs.IPA} {
		fx := artifactFor(t, backend)
		data := fx.data
		cfg := fx.plan.Config
		strs := 3 + len(cfg.Dot) + len(cfg.Arith) + len(cfg.ReLU)
		cfgEnd := 73 + strs + 12 + 4
		digestEnd := cfgEnd + 8 + 32
		fixedEnd := digestEnd + 4 + 32*len(fx.keys.VK.FixedCommits)
		sigmaEnd := fixedEnd + 4 + 32*len(fx.keys.VK.SigmaCommits)
		with := func(off int, b ...byte) []byte {
			d := append([]byte(nil), data...)
			copy(d[off:], b)
			return d
		}
		count := func(n uint32) []byte { return binary.BigEndian.AppendUint32(nil, n) }
		bad := offCurve(t)
		cases := map[string][]byte{
			"v2 magic":                 with(7, 2),
			"bad magic":                with(0, 'X'),
			"trailing byte":            append(append([]byte(nil), data...), 0),
			"unknown backend":          with(72, 9),
			"unknown dot strategy":     with(74, 'X'),
			"too few columns":          with(73+strs, 0, 0, 0, 3),
			"non-boolean flag":         with(cfgEnd-4, 2),
			"negative cost":            with(cfgEnd, 0x80|data[cfgEnd]),
			"NaN cost":                 with(cfgEnd, 0x7f, 0xf8),
			"fixed count 2^32-1":       with(digestEnd, count(1<<32-1)...),
			"fixed count 2^31":         with(digestEnd, count(1<<31)...),
			"column count 2^31":        with(73+strs, count(1<<31)...),
			"sigma count past the end": with(fixedEnd, count(uint32(len(data)-fixedEnd)/32+1)...),
			"SRS count one too many":   with(sigmaEnd, count(uint32(len(data)-sigmaEnd-4)/32+1)...),
			"off-curve commitment":     with(digestEnd+4, bad[:]...),
			"off-curve SRS point":      with(len(data)-32, bad[:]...),
			"non-canonical infinity":   with(fixedEnd+4, 0x40, 1),
		}
		for _, cut := range []int{0, 7, 8, 40, 72, 73, 73 + strs, cfgEnd, digestEnd - 32, digestEnd, digestEnd + 4,
			fixedEnd - 1, fixedEnd, sigmaEnd, sigmaEnd + 4, len(data) - 32, len(data) - 1} {
			cases[fmt.Sprintf("truncated to %d bytes", cut)] = data[:cut]
		}
		for name, d := range cases {
			if _, err := DecodeArtifact(d); !errors.Is(err, zkerrors.ErrMalformedArtifact) {
				t.Errorf("%v %s: got %v, want ErrMalformedArtifact", backend, name, err)
			}
		}

		af, err := DecodeArtifact(data)
		if err != nil {
			t.Fatal(err)
		}
		srs := af.SRS
		for name, pts := range map[string][]curve.Affine{
			"N-1": srs[:len(srs)-1],
			"N+1": append(append([]curve.Affine(nil), srs...), srs[1]),
		} {
			af.SRS = pts
			short, err := DecodeArtifact(af.encode())
			if err != nil {
				t.Fatalf("%v SRS of %s points: decode: %v", backend, name, err)
			}
			if _, _, err := short.Instantiate(fx.g, fx.in); !errors.Is(err, zkerrors.ErrMalformedArtifact) {
				t.Errorf("%v Instantiate with an SRS of %s points: got %v, want ErrMalformedArtifact", backend, name, err)
			}
			if _, _, err := short.InstantiateVerifier(fx.g, fx.in); !errors.Is(err, zkerrors.ErrMalformedArtifact) {
				t.Errorf("%v InstantiateVerifier with an SRS of %s points: got %v, want ErrMalformedArtifact", backend, name, err)
			}
		}
	}
}

// TestLoadedPlanEqualsCompiled: the grid, used rows and size estimate are
// not stored but re-derived, and for every bundled model at the benchmark's
// options they come back equal to the compiled plan's, with the same model
// commitment.
func TestLoadedPlanEqualsCompiled(t *testing.T) {
	if testing.Short() {
		t.Skip("keygen for every bundled model is slow")
	}
	for _, name := range model.Names() {
		t.Run(name, func(t *testing.T) {
			spec, _ := model.Get(name)
			g, in := spec.Build(), spec.Input(1)
			opt := DefaultOptions(pcs.KZG, fixedpoint.Params{ScaleBits: 6, LookupBits: 10})
			opt.MaxCols = 24
			opt.Calibration = costmodel.StaticCalibration()
			plan, _, _, err := Optimize(g, in, opt)
			if err != nil {
				t.Fatal(err)
			}
			keys, err := plan.Setup()
			if err != nil {
				t.Fatal(err)
			}
			data, err := EncodeArtifact(ArtifactMeta{}, plan, keys)
			if err != nil {
				t.Fatal(err)
			}
			af, err := DecodeArtifact(data)
			if err != nil {
				t.Fatal(err)
			}
			loaded, vkeys, err := af.InstantiateVerifier(spec.Build(), spec.Input(1))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := loaded.Candidate, plan.Candidate; got != want {
				t.Fatalf("loaded plan %+v, compiled %+v", got, want)
			}
			if !bytes.Equal(vkeys.VK.Digest(), keys.VK.Digest()) {
				t.Fatal("model commitment changed across encode/load")
			}
		})
	}
}

// FuzzDecodeArtifact feeds arbitrary bytes to the artifact decoder, the only
// code that parses a stored .zka. Arbitrary input must never panic and never
// allocate more than a constant multiple of its length (every count is capped
// by the bytes left), every rejection must wrap ErrMalformedArtifact, and
// anything accepted must re-encode byte-identically: the canonical point and
// field encodings make the format injective.
func FuzzDecodeArtifact(f *testing.F) {
	f.Add([]byte{})
	f.Add(artifactMagic[:])
	for _, b := range []pcs.Backend{pcs.KZG, pcs.IPA} {
		f.Add(artifactFor(f, b).data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		af, err := DecodeArtifact(data)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(data))+1<<16 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			if !errors.Is(err, zkerrors.ErrMalformedArtifact) {
				t.Fatalf("decode error does not wrap ErrMalformedArtifact: %v", err)
			}
			return
		}
		if round := af.encode(); !bytes.Equal(round, data) {
			t.Fatalf("non-canonical encoding accepted: %d bytes in, %d bytes out", len(data), len(round))
		}
	})
}
