package plonkish

import (
	"testing"

	"repro/internal/pcs"
)

func TestProofSerializationRoundTrip(t *testing.T) {
	for _, backend := range []pcs.Backend{pcs.KZG, pcs.IPA} {
		pk, vk := setup(t, backend)
		proof, err := Prove(pk, testInstance(24), testWitness(false, false, false))
		if err != nil {
			t.Fatal(err)
		}
		data, err := proof.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var decoded Proof
		if err := decoded.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		// The decoded proof must verify.
		if err := Verify(vk, testInstance(24), &decoded); err != nil {
			t.Fatalf("%v: decoded proof failed: %v", backend, err)
		}
	}
}

func TestProofDeserializationRejectsGarbage(t *testing.T) {
	var p Proof
	if err := p.UnmarshalBinary(nil); err == nil {
		t.Fatal("accepted empty proof")
	}
	if err := p.UnmarshalBinary([]byte{99}); err == nil {
		t.Fatal("accepted bad version")
	}
	// A count of 2^31 is a negative int on 32-bit platforms; it must be
	// bounded as the unsigned count it is, not passed to make.
	if err := p.UnmarshalBinary([]byte{proofVersion, 0x80, 0, 0, 0}); err == nil {
		t.Fatal("accepted a 2^31 point count")
	}
	// Truncation at every prefix of a valid proof must error, not panic.
	pk, _ := setup(t, pcs.KZG)
	proof, err := Prove(pk, testInstance(24), testWitness(false, false, false))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := proof.MarshalBinary()
	for _, cut := range []int{1, 5, len(data) / 2, len(data) - 1} {
		var d Proof
		if err := d.UnmarshalBinary(data[:cut]); err == nil {
			t.Fatalf("accepted truncation at %d", cut)
		}
	}
	// Trailing junk must be rejected.
	var d Proof
	if err := d.UnmarshalBinary(append(data, 0)); err == nil {
		t.Fatal("accepted trailing bytes")
	}
}

func TestProofSerializationTamperedPointRejected(t *testing.T) {
	pk, _ := setup(t, pcs.KZG)
	proof, err := Prove(pk, testInstance(24), testWitness(false, false, false))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := proof.MarshalBinary()
	// Flip a byte inside the first commitment's x coordinate; the decoder
	// must reject x coordinates with no curve point.
	found := false
	for off := 20; off < 37 && !found; off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0xFF
		var d Proof
		if err := d.UnmarshalBinary(mut); err != nil {
			found = true
		}
	}
	if !found {
		t.Skip("mutation landed on valid curve points")
	}
}
