package pcs

import (
	"testing"

	"repro/internal/ff"
	"repro/internal/poly"
	"repro/internal/transcript"
)

func randPoly(n int) []ff.Element {
	p := make([]ff.Element, n)
	for i := range p {
		p[i] = ff.Random()
	}
	return p
}

func schemes(t *testing.T, maxLen int) []Scheme {
	k, err := New(KZG, maxLen)
	if err != nil {
		t.Fatal(err)
	}
	i, err := New(IPA, maxLen)
	if err != nil {
		t.Fatal(err)
	}
	return []Scheme{k, i}
}

func TestOpenVerifyRoundTrip(t *testing.T) {
	for _, s := range schemes(t, 64) {
		for _, n := range []int{1, 2, 17, 64} {
			p := randPoly(n)
			c := s.Commit(p)
			z := ff.Random()
			y := poly.Eval(p, z)
			trP := transcript.New("test")
			o := s.Open(trP, p, z)
			trV := transcript.New("test")
			if err := s.Verify(trV, c, z, y, o); err != nil {
				t.Fatalf("%s n=%d: %v", s.Backend(), n, err)
			}
		}
	}
}

func TestVerifyRejectsWrongEval(t *testing.T) {
	for _, s := range schemes(t, 32) {
		p := randPoly(32)
		c := s.Commit(p)
		z := ff.Random()
		y := poly.Eval(p, z)
		var bad ff.Element
		one := ff.One()
		bad.Add(&y, &one)
		trP := transcript.New("test")
		o := s.Open(trP, p, z)
		trV := transcript.New("test")
		if err := s.Verify(trV, c, z, bad, o); err == nil {
			t.Fatalf("%s: accepted wrong evaluation", s.Backend())
		}
	}
}

func TestVerifyRejectsWrongCommitment(t *testing.T) {
	for _, s := range schemes(t, 32) {
		p := randPoly(32)
		q := randPoly(32)
		cQ := s.Commit(q)
		z := ff.Random()
		y := poly.Eval(p, z)
		trP := transcript.New("test")
		o := s.Open(trP, p, z)
		trV := transcript.New("test")
		if err := s.Verify(trV, cQ, z, y, o); err == nil {
			t.Fatalf("%s: accepted proof against wrong commitment", s.Backend())
		}
	}
}

func TestVerifyRejectsTamperedProof(t *testing.T) {
	for _, s := range schemes(t, 16) {
		p := randPoly(16)
		c := s.Commit(p)
		z := ff.Random()
		y := poly.Eval(p, z)
		trP := transcript.New("test")
		o := s.Open(trP, p, z)
		// Tamper.
		if s.Backend() == KZG {
			o.KZGWitness = s.Commit(randPoly(4))
		} else {
			o.A.Add(&o.A, &o.A)
		}
		trV := transcript.New("test")
		if err := s.Verify(trV, c, z, y, o); err == nil {
			t.Fatalf("%s: accepted tampered proof", s.Backend())
		}
	}
}

// addPoly returns p + q as a new coefficient slice.
func addPoly(p, q []ff.Element) []ff.Element {
	out := make([]ff.Element, max(len(p), len(q)))
	copy(out, p)
	for i := range q {
		out[i].Add(&out[i], &q[i])
	}
	return out
}

func TestCommitHomomorphic(t *testing.T) {
	// Commit(p) + Commit(q) == Commit(p+q): the batching property the
	// Plonkish verifier relies on.
	for _, s := range schemes(t, 16) {
		p, q := randPoly(16), randPoly(16)
		sum := addPoly(p, q)
		cp, cq, cs := s.Commit(p), s.Commit(q), s.Commit(sum)
		j := cp.ToJac()
		qj := cq.ToJac()
		j.AddAssign(&qj)
		got := j.ToAffine()
		if !got.Equal(&cs) {
			t.Fatalf("%s: commitment not homomorphic", s.Backend())
		}
	}
}

func TestCommitDeterministic(t *testing.T) {
	for _, s := range schemes(t, 16) {
		p := randPoly(16)
		a, b := s.Commit(p), s.Commit(p)
		if !a.Equal(&b) {
			t.Fatalf("%s: commitment not deterministic", s.Backend())
		}
	}
}

func TestOpeningSize(t *testing.T) {
	k, _ := New(KZG, 64)
	i, _ := New(IPA, 64)
	p := randPoly(64)
	z := ff.Random()
	ok := k.Open(transcript.New("t"), p, z)
	oi := i.Open(transcript.New("t"), p, z)
	if ok.Size() != 32 {
		t.Fatalf("KZG opening size %d, want 32", ok.Size())
	}
	// IPA: 2*log2(64) points + 1 scalar = 13 * 32.
	if oi.Size() != 32*(2*6+1) {
		t.Fatalf("IPA opening size %d, want %d", oi.Size(), 32*13)
	}
}

func TestOversizePolyPanics(t *testing.T) {
	k := NewKZG(8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on oversize poly")
		}
	}()
	k.Commit(randPoly(9))
}

func TestIPAPadding(t *testing.T) {
	// maxLen 10 rounds up to 16; short polynomials still open correctly.
	s := NewIPA(10)
	if s.MaxLen() != 16 {
		t.Fatalf("IPA padded size %d, want 16", s.MaxLen())
	}
	p := randPoly(7)
	c := s.Commit(p)
	z := ff.Random()
	y := poly.Eval(p, z)
	o := s.Open(transcript.New("t"), p, z)
	if err := s.Verify(transcript.New("t"), c, z, y, o); err != nil {
		t.Fatal(err)
	}
}

func TestKZGSRSDeterministic(t *testing.T) {
	// Two independent scheme instances must produce identical commitments
	// (the SRS stands in for the shared powers-of-tau ceremony artifact,
	// so provers and verifiers in different processes must agree).
	p := randPoly(16)
	a := NewKZG(16).Commit(p)
	b := NewKZG(32).Commit(p) // larger instance shares the same powers
	if !a.Equal(&b) {
		t.Fatal("KZG commitments differ across instances")
	}
}

func TestIPABasisDeterministic(t *testing.T) {
	p := randPoly(16)
	a := NewIPA(16).Commit(p)
	b := NewIPA(16).Commit(p)
	if !a.Equal(&b) {
		t.Fatal("IPA commitments differ across instances")
	}
}

func TestOpenAtDomainPoint(t *testing.T) {
	// Opening exactly at a root of the polynomial (y = 0) must work.
	for _, s := range schemes(t, 8) {
		z := ff.Random()
		var negZ ff.Element
		negZ.Neg(&z)
		p := []ff.Element{negZ, ff.One()} // X - z
		c := s.Commit(p)
		o := s.Open(transcript.New("t"), p, z)
		if err := s.Verify(transcript.New("t"), c, z, ff.Zero(), o); err != nil {
			t.Fatalf("%s: opening at root failed: %v", s.Backend(), err)
		}
	}
}
