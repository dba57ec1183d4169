package plonkish

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/pcs"
	"repro/internal/zkerrors"
)

// Proof wire format: a version byte, then length-prefixed sections of
// 32-byte compressed points and 32-byte scalars. The decoder treats the
// input as attacker-controlled: every decoded point is revalidated against
// the curve equation and every length prefix is capped by the bytes
// actually remaining, so a crafted header cannot force an allocation
// larger than a small multiple of the input size.

const proofVersion = 1

// wireScalarSize is the serialized size of one point or scalar; length
// prefixes are bounded by remaining/wireScalarSize before allocating.
const wireScalarSize = 32

// wireMinOpeningSize is the minimum serialized size of one Opening: a
// 1-point witness section (4+32), empty L and R sections (4+4), and a
// 1-scalar section (4+32).
const wireMinOpeningSize = 80

// errMalformed returns a context-wrapped zkerrors.ErrMalformedProof.
func errMalformed(format string, args ...any) error {
	return fmt.Errorf("plonkish: %s: %w", fmt.Sprintf(format, args...), zkerrors.ErrMalformedProof)
}

// scalarModBytes is the big-endian scalar field modulus; serialized scalars
// must compare below it so every field element has exactly one encoding
// (ff.Element.SetBytes reduces silently, which would make proof bytes
// malleable).
var scalarModBytes = func() [32]byte {
	var out [32]byte
	ff.Modulus().FillBytes(out[:])
	return out
}()

// MarshalBinary serializes the proof.
func (p *Proof) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte(proofVersion)
	writePoints := func(pts []curve.Affine) {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(pts)))
		buf.Write(n[:])
		for _, pt := range pts {
			b := pt.Bytes()
			buf.Write(b[:])
		}
	}
	writeScalars := func(ss []ff.Element) {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(ss)))
		buf.Write(n[:])
		for _, s := range ss {
			b := s.Bytes()
			buf.Write(b[:])
		}
	}
	writePoints(p.AdviceCommits)
	writePoints(p.MCommits)
	writePoints(p.PhiCommits)
	writePoints(p.ZCommits)
	writePoints(p.QuotientCommits)
	writeScalars(p.Evals)
	writeScalars(p.QuotientEvals)
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(p.Openings)))
	buf.Write(n[:])
	for _, o := range p.Openings {
		if o == nil {
			return nil, errMalformed("nil opening")
		}
		writePoints([]curve.Affine{o.KZGWitness})
		writePoints(o.L)
		writePoints(o.R)
		writeScalars([]ff.Element{o.A})
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary deserializes a proof, validating every curve point. All
// failures wrap zkerrors.ErrMalformedProof; arbitrary input never panics
// and never allocates more than a constant multiple of len(data).
func (p *Proof) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	ver, err := r.ReadByte()
	if err != nil {
		return errMalformed("proof truncated")
	}
	if ver != proofVersion {
		return errMalformed("unsupported proof version %d", ver)
	}
	// readLen decodes a 4-byte count whose items each consume at least
	// minItemSize bytes; counts exceeding remaining/minItemSize are
	// rejected before any allocation (a bare `count <= remaining` check
	// would let a 5-byte header force a 32-64x larger make).
	readLen := func(minItemSize int) (int, error) {
		var n [4]byte
		if _, err := io.ReadFull(r, n[:]); err != nil {
			return 0, errMalformed("truncated length prefix")
		}
		// Compared unsigned before converting: on 32-bit platforms a
		// prefix >= 2^31 is a negative int and would pass a signed bound.
		l := binary.BigEndian.Uint32(n[:])
		if uint64(l) > uint64(r.Len()/minItemSize) {
			return 0, errMalformed("length %d exceeds %d remaining bytes", l, r.Len())
		}
		return int(l), nil
	}
	readPoints := func() ([]curve.Affine, error) {
		n, err := readLen(wireScalarSize)
		if err != nil {
			return nil, err
		}
		out := make([]curve.Affine, n)
		for i := range out {
			var b [wireScalarSize]byte
			if _, err := io.ReadFull(r, b[:]); err != nil {
				return nil, errMalformed("truncated point")
			}
			if err := out[i].SetBytes(b); err != nil {
				return nil, errMalformed("%v", err)
			}
		}
		return out, nil
	}
	readScalars := func() ([]ff.Element, error) {
		n, err := readLen(wireScalarSize)
		if err != nil {
			return nil, err
		}
		out := make([]ff.Element, n)
		for i := range out {
			var b [wireScalarSize]byte
			if _, err := io.ReadFull(r, b[:]); err != nil {
				return nil, errMalformed("truncated scalar")
			}
			if bytes.Compare(b[:], scalarModBytes[:]) >= 0 {
				return nil, errMalformed("non-canonical scalar encoding")
			}
			out[i].SetBytes(b[:])
		}
		return out, nil
	}
	if p.AdviceCommits, err = readPoints(); err != nil {
		return err
	}
	if p.MCommits, err = readPoints(); err != nil {
		return err
	}
	if p.PhiCommits, err = readPoints(); err != nil {
		return err
	}
	if p.ZCommits, err = readPoints(); err != nil {
		return err
	}
	if p.QuotientCommits, err = readPoints(); err != nil {
		return err
	}
	if p.Evals, err = readScalars(); err != nil {
		return err
	}
	if p.QuotientEvals, err = readScalars(); err != nil {
		return err
	}
	nOpen, err := readLen(wireMinOpeningSize)
	if err != nil {
		return err
	}
	p.Openings = make([]*pcs.Opening, nOpen)
	for i := range p.Openings {
		o := &pcs.Opening{}
		w, err := readPoints()
		if err != nil {
			return err
		}
		if len(w) != 1 {
			return errMalformed("opening witness section has %d points, want 1", len(w))
		}
		o.KZGWitness = w[0]
		if o.L, err = readPoints(); err != nil {
			return err
		}
		if o.R, err = readPoints(); err != nil {
			return err
		}
		a, err := readScalars()
		if err != nil {
			return err
		}
		if len(a) != 1 {
			return errMalformed("opening scalar section has %d scalars, want 1", len(a))
		}
		o.A = a[0]
		p.Openings[i] = o
	}
	if r.Len() != 0 {
		return errMalformed("%d trailing bytes", r.Len())
	}
	return nil
}
