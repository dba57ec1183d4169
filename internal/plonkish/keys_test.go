package plonkish

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/obs"
	"repro/internal/pcs"
	"repro/internal/poly"
	"repro/internal/zkerrors"
)

// proveBytes runs a full prove with seeded blinding randomness and returns
// the serialized proof, so two runs from equivalent keys are comparable
// byte for byte.
func proveBytes(t *testing.T, pk *ProvingKey) []byte {
	t.Helper()
	ff.SetRandomSource(&ctrReader{seed: sha256.Sum256([]byte("key-material-test"))})
	defer ff.SetRandomSource(nil)
	proof, err := Prove(pk, testInstance(24), testWitness(false, false, false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// kernelWork runs f with the curve and poly kernel counters armed and returns
// the MSMs and FFTs it performed.
func kernelWork(f func()) (msms, ffts int64) {
	var counters obs.KernelCounters
	prevCurve, prevPoly := curve.SetKernelTrace(&counters), poly.SetKernelTrace(&counters)
	f()
	curve.SetKernelTrace(prevCurve)
	poly.SetKernelTrace(prevPoly)
	for i := range counters.MSM {
		msms += counters.MSM[i].Load()
		ffts += counters.FFT[i].Load()
	}
	return msms, ffts
}

func TestKeyMaterialRoundTripAndSetupEquivalence(t *testing.T) {
	for _, backend := range []pcs.Backend{pcs.KZG, pcs.IPA} {
		cs := testCircuit()
		const n = 32
		pk, vk, err := Setup(cs, n, testFixed(n), backend)
		if err != nil {
			t.Fatal(err)
		}
		// Copies, so nothing below can lean on sharing the original key's slices.
		fixedCommits := append([]curve.Affine(nil), vk.FixedCommits...)
		sigmaCommits := append([]curve.Affine(nil), vk.SigmaCommits...)

		// Keys from stored commitments re-interpolate the columns but must do
		// zero MSM work and yield keys that produce byte-identical proofs and
		// an identical VK digest.
		var pk2 *ProvingKey
		var vk2 *VerifyingKey
		msms, _ := kernelWork(func() {
			if vk2, err = SetupVK(testCircuit(), n, backend, fixedCommits, sigmaCommits); err == nil {
				pk2, err = vk2.ProvingKey(testFixed(n))
			}
		})
		if err != nil {
			t.Fatalf("%v SetupVK + ProvingKey: %v", backend, err)
		}
		if msms != 0 {
			t.Fatalf("%v SetupVK + ProvingKey performed %d MSMs, want 0", backend, msms)
		}
		if !bytes.Equal(vk.Digest(), vk2.Digest()) {
			t.Fatalf("%v VK digest differs after the commitment round trip", backend)
		}
		if got, want := proveBytes(t, pk2), proveBytes(t, pk); !bytes.Equal(got, want) {
			t.Fatalf("%v proof bytes differ between fresh and rebuilt keys", backend)
		}

		// VK-only setup: no fixed values, no MSMs, no FFTs, verifies real
		// proofs.
		var vkOnly *VerifyingKey
		msms, ffts := kernelWork(func() { vkOnly, err = SetupVK(testCircuit(), n, backend, fixedCommits, sigmaCommits) })
		if err != nil {
			t.Fatalf("%v SetupVK: %v", backend, err)
		}
		if msms != 0 || ffts != 0 {
			t.Fatalf("%v SetupVK performed %d MSMs and %d FFTs, want 0", backend, msms, ffts)
		}
		proof, err := Prove(pk, testInstance(24), testWitness(false, false, false))
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(vkOnly, testInstance(24), proof); err != nil {
			t.Fatalf("%v VK-only key rejected a valid proof: %v", backend, err)
		}
		if err := Verify(vkOnly, testInstance(25), proof); err == nil {
			t.Fatalf("%v VK-only key accepted a proof for the wrong instance", backend)
		}
	}
}

func TestKeyMaterialRejectsMismatch(t *testing.T) {
	cs := testCircuit()
	const n = 32
	_, vk, err := Setup(cs, n, testFixed(n), pcs.KZG)
	if err != nil {
		t.Fatal(err)
	}
	fixed, sigma := vk.FixedCommits, vk.SigmaCommits

	// A commitment short on either side, or none at all, is the wrong shape.
	short := map[string][2][]curve.Affine{
		"nil":   {nil, nil},
		"fixed": {fixed[1:], sigma},
		"sigma": {fixed, sigma[1:]},
	}
	for name, bad := range short {
		if _, err := SetupVK(testCircuit(), n, pcs.KZG, bad[0], bad[1]); !errors.Is(err, zkerrors.ErrMalformedArtifact) {
			t.Fatalf("SetupVK with %s commitments short: got %v", name, err)
		}
	}
	// Tampered commitment: a well-formed point that is not the column's
	// commitment. SetupVK takes it as given, and the verifying key and the
	// proving key completed from it carry a different VK digest, which is
	// what the artifact loader checks (core.TestArtifactRejectsTamperedCommitment
	// runs it end to end).
	tampered := append([]curve.Affine(nil), sigma...)
	g := curve.Generator()
	bumped := tampered[0].ToJac()
	bumped.AddMixed(&g)
	tampered[0] = bumped.ToAffine()
	vkOnly, err := SetupVK(testCircuit(), n, pcs.KZG, fixed, tampered)
	if err != nil {
		t.Fatal(err)
	}
	pkFull, err := vkOnly.ProvingKey(testFixed(n))
	if err != nil {
		t.Fatal(err)
	}
	for name, k := range map[string]*VerifyingKey{"ProvingKey": pkFull.VK, "SetupVK": vkOnly} {
		if bytes.Equal(k.Digest(), vk.Digest()) {
			t.Fatalf("%s: tampered commitment left the VK digest unchanged", name)
		}
	}
}

// TestKeyCosetParts: a proving key from Setup, and one completed from its
// verifying key's commitments as a store load completes it, holds every
// fixed and sigma column the quotient program reads — and no other — on
// each coset part, equal to CosetPartFFT of the column's polynomial.
func TestKeyCosetParts(t *testing.T) {
	for _, backend := range []pcs.Backend{pcs.KZG, pcs.IPA} {
		const n = 32
		pk, vk, err := Setup(testCircuit(), n, testFixed(n), backend)
		if err != nil {
			t.Fatal(err)
		}
		vk2, err := SetupVK(testCircuit(), n, backend, vk.FixedCommits, vk.SigmaCommits)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := vk2.ProvingKey(testFixed(n))
		if err != nil {
			t.Fatal(err)
		}
		for name, k := range map[string]*ProvingKey{"Setup": pk, "ProvingKey": loaded} {
			checkKeyCosetParts(t, backend.String()+" "+name, k)
		}
	}
}

func checkKeyCosetParts(t *testing.T, where string, pk *ProvingKey) {
	t.Helper()
	queried, _ := pk.Quotient.columns()
	keyCols, sigmas := 0, 0
	for _, c := range queried {
		parts, ok := pk.CosetParts[c]
		if !keyCol(c) {
			if ok {
				t.Fatalf("%s: the key holds coset parts of the proof's column %v/%d", where, c.Kind, c.Index)
			}
			continue
		}
		keyCols++
		if c.Kind == PermSigma {
			sigmas++
		}
		if len(parts) != QuotientPieces(pk.DMax) {
			t.Fatalf("%s: column %v/%d has %d parts, want %d", where, c.Kind, c.Index, len(parts), QuotientPieces(pk.DMax))
		}
		p := pk.FixedPolys[c.Index]
		if c.Kind == PermSigma {
			p = pk.SigmaPolys[c.Index]
		}
		for j, part := range parts {
			want := append([]ff.Element(nil), p...)
			pk.ExtDomain.CosetPartFFT(want, j)
			if len(part) != len(want) {
				t.Fatalf("%s: part %d of column %v/%d has %d values, want %d", where, j, c.Kind, c.Index, len(part), len(want))
			}
			for i := range want {
				if !part[i].Equal(&want[i]) {
					t.Fatalf("%s: part %d of column %v/%d differs from its transform at %d", where, j, c.Kind, c.Index, i)
				}
			}
		}
	}
	if len(pk.CosetParts) != keyCols || sigmas == 0 || sigmas == keyCols {
		t.Fatalf("%s: key holds %d columns' parts, want %d fixed and sigma columns (%d sigma)", where, len(pk.CosetParts), keyCols, sigmas)
	}
}
