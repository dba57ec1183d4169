package plonkish

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"repro/internal/curve"
	"repro/internal/pcs"
	"repro/internal/zkerrors"
)

// The fuzz targets and the mutation sweep share one fixture per backend:
// keys for the test circuit plus one valid serialized proof. Building keys
// is the expensive part, so it runs once per process.
type fuzzFixture struct {
	pk    *ProvingKey
	vk    *VerifyingKey
	proof []byte
	err   error
}

var (
	fuzzOnce sync.Once
	fuzzFix  map[pcs.Backend]*fuzzFixture
)

func fixture(tb testing.TB, backend pcs.Backend) *fuzzFixture {
	tb.Helper()
	fuzzOnce.Do(func() {
		fuzzFix = map[pcs.Backend]*fuzzFixture{}
		for _, b := range []pcs.Backend{pcs.KZG, pcs.IPA} {
			fx := &fuzzFixture{}
			cs := testCircuit()
			var pk *ProvingKey
			pk, fx.vk, fx.err = Setup(cs, 32, testFixed(32), b)
			if fx.err == nil {
				fx.pk = pk
				var p *Proof
				p, fx.err = Prove(pk, testInstance(24), testWitness(false, false, false))
				if fx.err == nil {
					fx.proof, fx.err = p.MarshalBinary()
				}
			}
			fuzzFix[b] = fx
		}
	})
	fx := fuzzFix[backend]
	if fx.err != nil {
		tb.Fatalf("building %v fixture: %v", backend, fx.err)
	}
	return fx
}

// FuzzProofUnmarshal feeds arbitrary bytes to the proof decoder. It must
// never panic, and any input it accepts must re-marshal byte-identically:
// the canonical-encoding checks (scalars < r, strict infinity encoding,
// curve membership) make the wire format injective, so acceptance of a
// second encoding of the same proof is a malleability bug.
func FuzzProofUnmarshal(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{proofVersion})
	for _, b := range []pcs.Backend{pcs.KZG, pcs.IPA} {
		f.Add(fixture(f, b).proof)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Proof
		if err := p.UnmarshalBinary(data); err != nil {
			if !errors.Is(err, zkerrors.ErrMalformedProof) {
				t.Fatalf("decode error does not wrap ErrMalformedProof: %v", err)
			}
			return
		}
		round, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted proof failed to re-marshal: %v", err)
		}
		if !bytes.Equal(round, data) {
			t.Fatalf("non-canonical encoding accepted: %d bytes in, %d bytes out", len(data), len(round))
		}
	})
}

// materialFuzzBytes lays a verifying key's commitments out as
// FuzzKeyMaterialUnmarshal reads them: a backend byte, the fixed-commitment
// count, then every fixed and sigma commitment's 32-byte encoding.
func materialFuzzBytes(b pcs.Backend, vk *VerifyingKey) []byte {
	out := []byte{byte(b), byte(len(vk.FixedCommits))}
	for _, c := range append(append([]curve.Affine(nil), vk.FixedCommits...), vk.SigmaCommits...) {
		enc := c.Bytes()
		out = append(out, enc[:]...)
	}
	return out
}

// FuzzKeyMaterialUnmarshal turns arbitrary bytes into key commitments — what
// a stored artifact hands to SetupVK once core has decoded its points — and
// builds both key layers for the test circuit from them. Neither may panic,
// every rejection must wrap ErrMalformedArtifact, accepted commitments must
// complete into a proving key over the same verifying key, and that key's
// digest equals the fixture's exactly when the commitments do, so a tampered
// commitment cannot pass the loader's digest check.
func FuzzKeyMaterialUnmarshal(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{byte(pcs.KZG), 0})
	for _, b := range []pcs.Backend{pcs.KZG, pcs.IPA} {
		f.Add(materialFuzzBytes(b, fixture(f, b).vk))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || (len(data)-2)%32 != 0 {
			return
		}
		b := pcs.Backend(data[0] & 1)
		pts := make([]curve.Affine, (len(data)-2)/32)
		for i := range pts {
			if pts[i].SetBytes([32]byte(data[2+32*i:])) != nil {
				return
			}
		}
		nf := int(data[1])
		if nf > len(pts) {
			return
		}
		fx := fixture(t, b)
		vk, err := SetupVK(fx.vk.CS, fx.vk.N, b, pts[:nf], pts[nf:])
		if err != nil {
			if !errors.Is(err, zkerrors.ErrMalformedArtifact) {
				t.Fatalf("rejection does not wrap ErrMalformedArtifact: %v", err)
			}
			return
		}
		full, err := vk.ProvingKey(testFixed(fx.vk.N))
		if err != nil {
			t.Fatalf("accepted commitments do not complete a proving key: %v", err)
		}
		if full.VK != vk {
			t.Fatal("the proving key does not carry the verifying key it completed")
		}
		same := true
		for i, c := range append(append([]curve.Affine(nil), fx.vk.FixedCommits...), fx.vk.SigmaCommits...) {
			same = same && c.Equal(&pts[i])
		}
		if bytes.Equal(vk.Digest(), fx.vk.Digest()) != same {
			t.Fatalf("digest match %v, but commitments match %v", !same, same)
		}
	})
}

// FuzzVerify decodes arbitrary bytes and runs the full verifier against a
// real verification key. Arbitrary input must never panic, every failure
// must wrap one of the taxonomy sentinels, and anything accepted must be a
// canonically encoded proof. (The fuzz worker runs in its own process, so
// it regenerates the fixture with fresh blinding randomness — byte
// comparison against the seeded proof is meaningless here; the
// deterministic mutation sweep below owns the "flips are rejected"
// property.)
func FuzzVerify(f *testing.F) {
	f.Add([]byte{})
	for _, b := range []pcs.Backend{pcs.KZG, pcs.IPA} {
		f.Add(fixture(f, b).proof)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, b := range []pcs.Backend{pcs.KZG, pcs.IPA} {
			fx := fixture(t, b)
			var p Proof
			if err := p.UnmarshalBinary(data); err != nil {
				continue
			}
			if err := Verify(fx.vk, testInstance(24), &p); err == nil {
				round, merr := p.MarshalBinary()
				if merr != nil || !bytes.Equal(round, data) {
					t.Fatalf("%v verifier accepted a non-canonical encoding (%d bytes)", b, len(data))
				}
			} else if !errors.Is(err, zkerrors.ErrVerifyFailed) && !errors.Is(err, zkerrors.ErrMalformedProof) {
				t.Fatalf("%v verify error outside the taxonomy: %v", b, err)
			}
		}
	})
}

// TestProofMutationSweep is the soundness acceptance check: flipping any
// single byte of a valid serialized proof must yield a decode error or a
// failed verification — never a panic, never an accept. Scalar flips
// cannot alias (a delta of diff*2^(8k) is never a multiple of the odd
// prime r, and non-reduced encodings are rejected outright), point flips
// either leave the curve or move to a different point, and flips in a
// backend's unused opening fields are rejected as cross-backend strays.
func TestProofMutationSweep(t *testing.T) {
	for _, backend := range []pcs.Backend{pcs.KZG, pcs.IPA} {
		t.Run(backend.String(), func(t *testing.T) {
			fx := fixture(t, backend)
			data := fx.proof
			check := func(off int) (accepted bool) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("byte %d: panic: %v", off, r)
					}
				}()
				mut := append([]byte(nil), data...)
				mut[off] ^= 0xFF
				var p Proof
				if err := p.UnmarshalBinary(mut); err != nil {
					return false
				}
				return Verify(fx.vk, testInstance(24), &p) == nil
			}
			for off := range data {
				if check(off) {
					t.Errorf("mutant at byte %d of %d was ACCEPTED", off, len(data))
				}
			}
			t.Logf("%v: all %d single-byte mutants rejected", backend, len(data))
		})
	}
}

// TestProofCraftedHeaderAmplification checks the allocation bound: a tiny
// input whose 4-byte count field claims a huge section must be rejected by
// the remaining-bytes cap before anything is allocated.
func TestProofCraftedHeaderAmplification(t *testing.T) {
	for _, claimed := range []uint32{1 << 20, 1<<32 - 1} {
		hdr := make([]byte, 5, 9)
		hdr[0] = proofVersion
		binary.BigEndian.PutUint32(hdr[1:5], claimed)
		crafted := append(hdr, 1, 2, 3, 4)
		var p Proof
		err := p.UnmarshalBinary(crafted)
		if err == nil {
			t.Fatalf("accepted header claiming %d points in %d bytes", claimed, len(crafted))
		}
		if !errors.Is(err, zkerrors.ErrMalformedProof) {
			t.Fatalf("crafted header error does not wrap ErrMalformedProof: %v", err)
		}
	}
}
