package plonkish

import (
	"fmt"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/pcs"
	"repro/internal/wire"
	"repro/internal/zkerrors"
)

// Proof wire format: a version byte, then count-prefixed sections of
// 32-byte compressed points and 32-byte scalars, written and read through
// internal/wire, which bounds every count and checks every encoding.

const proofVersion = 1

// wireMinOpeningSize is the minimum serialized size of one Opening: a
// 1-point witness section (4+32), empty L and R sections (4+4), and a
// 1-scalar section (4+32).
const wireMinOpeningSize = 80

// errMalformed returns a context-wrapped zkerrors.ErrMalformedProof.
func errMalformed(format string, args ...any) error {
	return fmt.Errorf("plonkish: %s: %w", fmt.Sprintf(format, args...), zkerrors.ErrMalformedProof)
}

// MarshalBinary serializes the proof.
func (p *Proof) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.Byte(proofVersion)
	for _, pts := range [][]curve.Affine{p.AdviceCommits, p.MCommits, p.PhiCommits, p.ZCommits, p.QuotientCommits} {
		w.Points(pts)
	}
	w.Scalars(p.Evals)
	w.Scalars(p.QuotientEvals)
	w.U32(len(p.Openings))
	for _, o := range p.Openings {
		if o == nil {
			return nil, errMalformed("nil opening")
		}
		w.Points([]curve.Affine{o.KZGWitness})
		w.Points(o.L)
		w.Points(o.R)
		w.Scalars([]ff.Element{o.A})
	}
	return w.Bytes(), nil
}

// UnmarshalBinary deserializes a proof, validating every curve point. All
// failures wrap zkerrors.ErrMalformedProof; arbitrary input never panics
// and never allocates more than a constant multiple of len(data).
func (p *Proof) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data, zkerrors.ErrMalformedProof)
	if ver := r.Byte("proof version"); r.Err() == nil && ver != proofVersion {
		r.Fail("unsupported proof version %d", ver)
	}
	p.AdviceCommits = r.Points("advice commitment")
	p.MCommits = r.Points("multiplicity commitment")
	p.PhiCommits = r.Points("lookup sum commitment")
	p.ZCommits = r.Points("permutation commitment")
	p.QuotientCommits = r.Points("quotient commitment")
	p.Evals = r.Scalars("evaluation")
	p.QuotientEvals = r.Scalars("quotient evaluation")
	p.Openings = make([]*pcs.Opening, r.Count("opening", wireMinOpeningSize))
	for i := range p.Openings {
		o := &pcs.Opening{}
		if w := r.Points("opening witness"); len(w) == 1 {
			o.KZGWitness = w[0]
		} else {
			r.Fail("opening witness section has %d points, want 1", len(w))
		}
		o.L = r.Points("opening L")
		o.R = r.Points("opening R")
		if a := r.Scalars("opening scalar"); len(a) == 1 {
			o.A = a[0]
		} else {
			r.Fail("opening scalar section has %d scalars, want 1", len(a))
		}
		if r.Err() != nil {
			break
		}
		p.Openings[i] = o
	}
	return r.Close()
}
