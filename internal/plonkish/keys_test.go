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
		m := KeyMaterial{
			FixedCommits: append([]curve.Affine(nil), pk.Material().FixedCommits...),
			SigmaCommits: append([]curve.Affine(nil), pk.Material().SigmaCommits...),
		}

		// Material-based setup re-interpolates the columns but must do zero
		// MSM work and yield keys that produce byte-identical proofs and an
		// identical VK digest.
		var pk2 *ProvingKey
		var vk2 *VerifyingKey
		msms, _ := kernelWork(func() { pk2, vk2, err = SetupFromMaterial(testCircuit(), n, testFixed(n), backend, &m) })
		if err != nil {
			t.Fatalf("%v SetupFromMaterial: %v", backend, err)
		}
		if msms != 0 {
			t.Fatalf("%v SetupFromMaterial performed %d MSMs, want 0", backend, msms)
		}
		if !bytes.Equal(vk.Digest(), vk2.Digest()) {
			t.Fatalf("%v VK digest differs after material round trip", backend)
		}
		if got, want := proveBytes(t, pk2), proveBytes(t, pk); !bytes.Equal(got, want) {
			t.Fatalf("%v proof bytes differ between fresh and material-based keys", backend)
		}

		// VK-only setup: no fixed values, no MSMs, no FFTs, verifies real
		// proofs.
		var vkOnly *VerifyingKey
		msms, ffts := kernelWork(func() { vkOnly, err = SetupVK(testCircuit(), n, backend, &m) })
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
	pk, vk, err := Setup(cs, n, testFixed(n), pcs.KZG)
	if err != nil {
		t.Fatal(err)
	}
	m := pk.Material()

	// A commitment short on either side, or none at all, is the wrong shape
	// on both setup paths.
	short := map[string]*KeyMaterial{
		"nil":   nil,
		"fixed": {FixedCommits: m.FixedCommits[1:], SigmaCommits: m.SigmaCommits},
		"sigma": {FixedCommits: m.FixedCommits, SigmaCommits: m.SigmaCommits[1:]},
	}
	for name, bad := range short {
		if _, _, err := SetupFromMaterial(testCircuit(), n, testFixed(n), pcs.KZG, bad); !errors.Is(err, zkerrors.ErrMalformedArtifact) {
			t.Fatalf("SetupFromMaterial with %s material short: got %v", name, err)
		}
		if _, err := SetupVK(testCircuit(), n, pcs.KZG, bad); !errors.Is(err, zkerrors.ErrMalformedArtifact) {
			t.Fatalf("SetupVK with %s material short: got %v", name, err)
		}
	}
	// Tampered commitment: a well-formed point that is not the column's
	// commitment. Both setup paths take it as given; the keys they build
	// carry a different VK digest, which is what the artifact loader checks
	// (core.TestArtifactRejectsTamperedCommitment runs it end to end).
	tampered := *m
	tampered.SigmaCommits = append([]curve.Affine(nil), m.SigmaCommits...)
	g := curve.Generator()
	bumped := tampered.SigmaCommits[0].ToJac()
	bumped.AddMixed(&g)
	tampered.SigmaCommits[0] = bumped.ToAffine()
	_, vkFull, err := SetupFromMaterial(testCircuit(), n, testFixed(n), pcs.KZG, &tampered)
	if err != nil {
		t.Fatal(err)
	}
	vkOnly, err := SetupVK(testCircuit(), n, pcs.KZG, &tampered)
	if err != nil {
		t.Fatal(err)
	}
	for name, k := range map[string]*VerifyingKey{"SetupFromMaterial": vkFull, "SetupVK": vkOnly} {
		if bytes.Equal(k.Digest(), vk.Digest()) {
			t.Fatalf("%s: tampered commitment left the VK digest unchanged", name)
		}
	}
}
