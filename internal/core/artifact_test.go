package core

import (
	"errors"
	"testing"

	"repro/internal/curve"
	"repro/internal/model"
	"repro/internal/pcs"
	"repro/internal/zkerrors"
)

// TestArtifactRejectsTamperedCommitment: a stored commitment that decodes
// to a valid point but is not the column's commitment is caught by the
// verifying-key digest on both load paths, and a v1 artifact is rejected by
// the magic rather than half-decoded.
func TestArtifactRejectsTamperedCommitment(t *testing.T) {
	spec, _ := model.Get("dlrm-micro")
	g, in := spec.Build(), spec.Input(1)
	plan, _, _, err := Optimize(g, in, testOpts(pcs.KZG))
	if err != nil {
		t.Fatal(err)
	}
	keys, err := plan.Setup()
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeArtifact(ArtifactMeta{}, plan, keys)
	if err != nil {
		t.Fatal(err)
	}
	if data[7] != ArtifactVersion || ArtifactVersion != 2 {
		t.Fatalf("artifact magic version %d, want 2", data[7])
	}
	af, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := af.Instantiate(g, in); err != nil {
		t.Fatalf("untampered artifact: %v", err)
	}

	gen := curve.Generator()
	c := af.Material.FixedCommits[0].ToJac()
	c.AddMixed(&gen)
	af.Material.FixedCommits[0] = c.ToAffine()
	if _, _, err := af.Instantiate(g, in); !errors.Is(err, zkerrors.ErrMalformedArtifact) {
		t.Fatalf("Instantiate with a tampered commitment: got %v, want ErrMalformedArtifact", err)
	}
	if _, _, err := af.InstantiateVerifier(g, in); !errors.Is(err, zkerrors.ErrMalformedArtifact) {
		t.Fatalf("InstantiateVerifier with a tampered commitment: got %v, want ErrMalformedArtifact", err)
	}

	v1 := append([]byte(nil), data...)
	v1[7] = 1
	if _, err := DecodeArtifact(v1); !errors.Is(err, zkerrors.ErrMalformedArtifact) {
		t.Fatalf("v1 artifact: got %v, want ErrMalformedArtifact", err)
	}
}
