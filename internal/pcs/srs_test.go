package pcs

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/poly"
	"repro/internal/zkerrors"
)

func TestSRSRoundTrip(t *testing.T) {
	for _, b := range []Backend{KZG, IPA} {
		data, err := ExportSRS(b, 64)
		if err != nil {
			t.Fatalf("%v export: %v", b, err)
		}
		// Header (magic, version, backend, count) plus the points: the KZG
		// powers alone, or the IPA basis plus a one-point anchor section.
		want := 10 + 32*64
		if b == IPA {
			want += 4 + 32
		}
		if len(data) != want {
			t.Fatalf("%v export is %d bytes, want %d", b, len(data), want)
		}
		got, n, err := ImportSRS(data)
		if err != nil {
			t.Fatalf("%v import: %v", b, err)
		}
		if got != b || n != 64 {
			t.Fatalf("%v import returned (%v, %d)", b, got, n)
		}
		// A warm import means a scheme at or below the imported size does
		// no setup work.
		before := SetupWorkSnapshot()
		if _, err := New(b, 64); err != nil {
			t.Fatal(err)
		}
		if d := SetupWorkSnapshot().Sub(before); !d.IsZero() {
			t.Fatalf("%v scheme after import did setup work: %+v", b, d)
		}
	}
}

// TestImportedPowersCommitLagrange: a KZG import carries the powers only.
// It builds nothing; the first Lagrange derivation after it builds the
// generator comb once, and the Lagrange commitment equals the coefficient
// commitment of the interpolated column, as on a freshly generated SRS.
func TestImportedPowersCommitLagrange(t *testing.T) {
	const n = 1 << 7
	data, err := ExportSRS(KZG, n)
	if err != nil {
		t.Fatal(err)
	}
	kzgMu.Lock()
	kzgTable = nil // as in a process that has only imported
	kzgMu.Unlock()
	kzgLagrangeMu.Lock()
	delete(kzgLagranges, n)
	kzgLagrangeMu.Unlock()

	before := SetupWorkSnapshot()
	if _, _, err := ImportSRS(data); err != nil {
		t.Fatal(err)
	}
	k := NewKZG(n)
	if d := SetupWorkSnapshot().Sub(before); !d.IsZero() {
		t.Fatalf("import did setup work: %+v", d)
	}
	evals := column("small", n)
	coeffs := append([]ff.Element(nil), evals...)
	poly.NewDomain(n).IFFT(coeffs)
	got, want := k.CommitLagrange(evals), k.Commit(coeffs)
	if !got.Equal(&want) {
		t.Fatal("CommitLagrange != Commit(IFFT) after a powers-only import")
	}
	if d := SetupWorkSnapshot().Sub(before); d.KZGCombBuilds != 1 || d.KZGLagrangeDerived != n {
		t.Fatalf("first Lagrange commit after import: %+v, want one comb build and %d derived points", d, n)
	}
}

func TestSRSImportRejectsCorruption(t *testing.T) {
	data, err := ExportSRS(KZG, 16)
	if err != nil {
		t.Fatal(err)
	}
	if data[4] != 2 {
		t.Fatalf("SRS version %d, want 2", data[4])
	}
	with := func(off int, v byte) []byte {
		d := append([]byte(nil), data...)
		d[off] = v
		return d
	}
	// A v1 body — the powers followed by comb windows — under a v2 header.
	g := curve.Generator()
	gb := g.Bytes()
	withComb := append(append([]byte(nil), data...), 0, 0, 1, 0)
	for i := 0; i < 256; i++ {
		withComb = append(withComb, gb[:]...)
	}
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("XSRS"), data[4:]...),
		"v1 blob":     with(4, 1),
		"bad backend": with(5, 7),
		"no powers":   append(append([]byte(nil), data[:6]...), 0, 0, 0, 0),
		"truncated":   data[:len(data)-7],
		"trailing":    append(append([]byte(nil), data...), 0),
		"comb window": withComb,
		"huge count":  append(append([]byte(nil), data[:6]...), 0xff, 0xff, 0xff, 0xff),
	}
	// Flip a byte inside the first and the last power (x coordinate low
	// byte): either the point leaves the curve or it no longer matches the
	// ceremony.
	for name, off := range map[string]int{"flipped first point": 10 + 31, "flipped last point": len(data) - 1} {
		cases[name] = with(off, data[off]^1)
	}
	for name, d := range cases {
		if _, _, err := ImportSRS(d); !errors.Is(err, zkerrors.ErrMalformedArtifact) {
			t.Errorf("%s: got %v, want ErrMalformedArtifact", name, err)
		}
	}
}

// FuzzImportSRS feeds arbitrary bytes to the SRS decoder, the section of
// every stored artifact that pcs decodes itself. Arbitrary input must never
// panic or over-allocate (point counts are capped by the bytes remaining),
// every rejection must wrap ErrMalformedArtifact, and an accepted input must
// be exactly the header plus the points it reports. (An accepted input is
// installed into this process's setup; the ceremony spot checks keep that
// to SRSs whose first, second and last powers are right.)
func FuzzImportSRS(f *testing.F) {
	f.Add([]byte{})
	f.Add(append(append([]byte(nil), srsMagic[:]...), srsVersion))
	for _, b := range []Backend{KZG, IPA} {
		data, err := ExportSRS(b, 16)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, n, err := ImportSRS(data)
		if err != nil {
			if !errors.Is(err, zkerrors.ErrMalformedArtifact) {
				t.Fatalf("import error does not wrap ErrMalformedArtifact: %v", err)
			}
			return
		}
		want := 10 + 32*n
		if b == IPA {
			want += 4 + 32
		}
		if len(data) != want || !bytes.Equal(data[:4], srsMagic[:]) {
			t.Fatalf("accepted %d bytes as a %v SRS of %d points", len(data), b, n)
		}
	})
}
