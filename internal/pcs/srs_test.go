package pcs

import (
	"testing"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/poly"
)

func TestSRSRoundTrip(t *testing.T) {
	for _, b := range []Backend{KZG, IPA} {
		pts, err := SRSPoints(b, 64)
		if err != nil {
			t.Fatalf("%v points: %v", b, err)
		}
		// The KZG powers alone, or the IPA basis plus its anchor.
		want := 64
		if b == IPA {
			want++
		}
		if len(pts) != want {
			t.Fatalf("%v setup is %d points, want %d", b, len(pts), want)
		}
		if err := InstallSRS(b, pts); err != nil {
			t.Fatalf("%v install: %v", b, err)
		}
		// A warm install means a scheme at or below the installed size does
		// no setup work.
		before := SetupWorkSnapshot()
		if _, err := New(b, 64); err != nil {
			t.Fatal(err)
		}
		if d := SetupWorkSnapshot().Sub(before); !d.IsZero() {
			t.Fatalf("%v scheme after install did setup work: %+v", b, d)
		}
	}
}

// TestImportedPowersCommitLagrange: an installed KZG setup is the powers
// only. It builds nothing; the first Lagrange derivation after it builds the
// generator comb once, and the Lagrange commitment equals the coefficient
// commitment of the interpolated column, as on a freshly generated SRS.
func TestImportedPowersCommitLagrange(t *testing.T) {
	const n = 1 << 7
	powers, err := SRSPoints(KZG, n)
	if err != nil {
		t.Fatal(err)
	}
	kzgSetup := &setups[KZG]
	kzgSetup.mu.Lock()
	kzgSetup.comb = nil // as in a process that has only imported
	kzgSetup.mu.Unlock()
	ResetLagrangeBases()

	before := SetupWorkSnapshot()
	if err := InstallSRS(KZG, powers); err != nil {
		t.Fatal(err)
	}
	k := NewKZG(n)
	if d := SetupWorkSnapshot().Sub(before); !d.IsZero() {
		t.Fatalf("install did setup work: %+v", d)
	}
	evals := column("small", n)
	coeffs := append([]ff.Element(nil), evals...)
	poly.NewDomain(n).IFFT(coeffs)
	got, want := k.CommitLagrange(evals), k.Commit(coeffs)
	if !got.Equal(&want) {
		t.Fatal("CommitLagrange != Commit(IFFT) after a powers-only install")
	}
	if d := SetupWorkSnapshot().Sub(before); d.KZGCombBuilds != 1 || d.KZGLagrangeDerived != n {
		t.Fatalf("first Lagrange commit after install: %+v, want one comb build and %d derived points", d, n)
	}
}

// TestInstallSRSKeepsNoCallerArray: an install longer than the process's
// setup must not leave the process basis in the caller's array, where the
// next growth would append into it — over the caller's spare capacity on
// KZG, over the anchor that follows the basis on IPA.
func TestInstallSRSKeepsNoCallerArray(t *testing.T) {
	g := curve.Generator()
	for _, b := range []Backend{KZG, IPA} {
		s := &setups[b]
		s.mu.Lock()
		m := len(s.basis)
		pts := append(make([]curve.Affine, 0, 2*m+8), s.basis...)
		s.mu.Unlock()
		// The process's basis, one point past it, then IPA's anchor.
		if b == KZG {
			tau := kzgTau()
			var tm ff.Element
			tm.ExpUint64(&tau, uint64(m))
			pts = append(pts, curve.ScalarMul(&g, &tm).ToAffine())
		} else {
			pts = append(pts, curve.HashToCurve("ipa-basis", m), ipaAnchor())
		}
		whole := pts[:cap(pts)]
		for i := len(pts); i < len(whole); i++ {
			whole[i] = g
		}
		want := append([]curve.Affine(nil), whole...)
		if err := InstallSRS(b, pts); err != nil {
			t.Fatalf("%v install: %v", b, err)
		}
		if _, err := New(b, m+2); err != nil {
			t.Fatal(err)
		}
		for i := range whole {
			if !whole[i].Equal(&want[i]) {
				t.Fatalf("%v: growth after an install of %d points overwrote the caller's point %d", b, len(pts), i)
			}
		}
	}
}

// TestSRSImportRejectsCorruption: the install's spot checks reject a setup
// from another ceremony — a wrong power 0, 1 or n−1 on KZG, a wrong anchor or
// basis point 0 on IPA — and setups too short to carry them. (The byte-level
// corruption matrix of the stored section is core's, which decodes it.)
func TestSRSImportRejectsCorruption(t *testing.T) {
	const n = 16
	g := curve.Generator()
	off := g.ToJac()
	off.AddMixed(&g) // 2·G: on the curve, but nobody's setup point
	wrong := off.ToAffine()
	for _, b := range []Backend{KZG, IPA} {
		pts, err := SRSPoints(b, n)
		if err != nil {
			t.Fatal(err)
		}
		with := func(i int) []curve.Affine {
			d := append([]curve.Affine(nil), pts...)
			d[i] = wrong
			return d
		}
		cases := map[string][]curve.Affine{"empty": nil, "point 0": with(0), "last point": with(len(pts) - 1)}
		if b == KZG {
			cases["power 1"] = with(1)
		} else {
			cases["anchor only"] = pts[len(pts)-1:]
		}
		for name, d := range cases {
			if err := InstallSRS(b, d); err == nil {
				t.Errorf("%v %s: installed", b, name)
			}
		}
	}
	if err := InstallSRS(Backend(7), []curve.Affine{g}); err == nil {
		t.Error("unknown backend: installed")
	}
}

// srsFuzzBytes lays a setup out as FuzzImportSRS reads it: one backend byte,
// then each point's 32-byte encoding.
func srsFuzzBytes(b Backend, pts []curve.Affine) []byte {
	out := []byte{byte(b)}
	for i := range pts {
		enc := pts[i].Bytes()
		out = append(out, enc[:]...)
	}
	return out
}

// FuzzImportSRS feeds arbitrary point lists, under any backend byte, to
// InstallSRS — the step a stored SRS section goes through after core has
// decoded its points. It must never panic, and any setup it accepts must
// carry the points its spot checks pin: the generator as KZG power 0, or the
// derived IPA basis point 0 and anchor.
func FuzzImportSRS(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{byte(KZG)})
	for _, b := range []Backend{KZG, IPA} {
		pts, err := SRSPoints(b, 16)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(srsFuzzBytes(b, pts))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || (len(data)-1)%32 != 0 {
			return
		}
		b := Backend(data[0])
		pts := make([]curve.Affine, (len(data)-1)/32)
		for i := range pts {
			if pts[i].SetBytes([32]byte(data[1+32*i:])) != nil {
				return
			}
		}
		if err := InstallSRS(b, pts); err != nil {
			return
		}
		switch b {
		case KZG:
			g := curve.Generator()
			if !pts[0].Equal(&g) {
				t.Fatalf("installed a KZG setup of %d points whose power 0 is not the generator", len(pts))
			}
		case IPA:
			u, b0 := curve.HashToCurve("ipa-u", 0), curve.HashToCurve("ipa-basis", 0)
			if len(pts) < 2 || !pts[len(pts)-1].Equal(&u) || !pts[0].Equal(&b0) {
				t.Fatalf("installed an IPA setup of %d points without the derived basis point 0 and anchor", len(pts))
			}
		default:
			t.Fatalf("installed a setup under unknown backend %v", b)
		}
	})
}
