package curve

import (
	"bytes"
	"encoding/binary"
	"math/big"
	"testing"

	"repro/internal/ff"
)

// FuzzPointSetBytes feeds arbitrary 32-byte strings to the compressed-point
// decoder. Decoding must never panic; every accepted input must decode to a
// point on the curve and re-encode byte-identically (the wire format is
// injective: flag bits are canonical, infinity is exactly 0x40 || 0^31, and
// x coordinates are reduced).
// FuzzGLVDecompose feeds arbitrary 32-byte scalars through the GLV
// decomposition and checks the invariants the MSM kernels rely on
// (checkDecompose): k1 + λ·k2 ≡ k (mod r) exactly, both halves fit the
// glvHalfBits size bound the window schedules are sized for, and the
// short-scalar path agrees with the lattice reduction. Random bytes are
// almost never short, so the input is also checked truncated to
// glvShortBits bits and as that value's negation. The scalars then drive a
// small MSM with duplicated points through the GLV kernel and the plain
// kernel; the group elements must match.
func FuzzGLVDecompose(f *testing.F) {
	r := ff.Modulus()
	seed := func(v *big.Int) {
		var b [32]byte
		v.FillBytes(b[:])
		f.Add(b[:])
	}
	seed(big.NewInt(0))
	seed(big.NewInt(1))
	seed(new(big.Int).Sub(r, big.NewInt(1)))
	seed(GLVLambda())
	seed(new(big.Int).Sub(r, GLVLambda()))
	seed(new(big.Int).Lsh(big.NewInt(1), glvShortBits))
	seed(new(big.Int).Sub(r, new(big.Int).Lsh(big.NewInt(1), glvShortBits)))
	var all [32]byte
	for i := range all {
		all[i] = 0xff
	}
	f.Add(all[:])

	g := Generator()
	two := ff.NewElement(2)
	h := ScalarMul(&g, &two).ToAffine()
	pts := []Affine{g, h, g, h, g, g, h, g} // duplicates on purpose

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) != 32 {
			return
		}
		var k ff.Element
		k.SetBigInt(new(big.Int).Mod(new(big.Int).SetBytes(data), r))
		var short, negShort ff.Element
		short.SetBigInt(new(big.Int).Rsh(new(big.Int).SetBytes(data), 256-glvShortBits))
		negShort.Neg(&short)
		for _, s := range []*ff.Element{&k, &short, &negShort} {
			checkDecompose(t, s)
		}

		// Derive the remaining scalars from the fuzz input so the MSM check
		// sees varied neighbors around the interesting scalars.
		scs := make([]ff.Element, len(pts))
		scs[0], scs[1], scs[2] = k, short, negShort
		for i := 3; i < len(scs); i++ {
			v := binary.BigEndian.Uint64(data[(i*4)%24:]) + uint64(i)
			scs[i] = ff.NewElement(v)
			scs[i].Mul(&scs[i], &k)
			inc := ff.NewElement(uint64(i))
			scs[i].Add(&scs[i], &inc)
		}
		glv := msmGLV(pts, scs).ToAffine()
		plain := msmPlain(pts, scs).ToAffine()
		if !glv.Equal(&plain) {
			t.Fatalf("GLV MSM differs from plain kernel for k=%v", k.BigInt())
		}
	})
}

func FuzzPointSetBytes(f *testing.F) {
	g := Generator()
	gb := g.Bytes()
	f.Add(gb[:])
	var inf [32]byte
	inf[0] = 0x40
	f.Add(inf[:])
	f.Add(make([]byte, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) != 32 {
			return
		}
		var b [32]byte
		copy(b[:], data)
		var p Affine
		if err := p.SetBytes(b); err != nil {
			return
		}
		if !p.Inf && !p.IsOnCurve() {
			t.Fatalf("decoded off-curve point from %x", b)
		}
		round := p.Bytes()
		if !bytes.Equal(round[:], b[:]) {
			t.Fatalf("non-canonical encoding accepted: %x decodes, re-encodes as %x", b, round)
		}
	})
}
