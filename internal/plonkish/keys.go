package plonkish

import (
	"fmt"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/pcs"
	"repro/internal/zkerrors"
)

// KeyMaterial is the expensive numeric output of Setup: the fixed and sigma
// commitments (the keygen MSMs). Everything else in a proving key — domains,
// fixed and sigma values, their interpolated polynomials, the compiled
// constraint programs — is rebuilt from the circuit by the code keygen runs, so
// supplying this block turns keygen into one IFFT per column. The artifact
// store (core's ZKMLART format) persists it.
type KeyMaterial struct {
	// FixedCommits / SigmaCommits are the verifying key's content: one
	// commitment per fixed column (circuit fixed columns, then q_active,
	// l_0, l_u) and one per permutation column's sigma.
	FixedCommits []curve.Affine
	SigmaCommits []curve.Affine
}

// Material extracts the persistable key material from a proving key.
func (pk *ProvingKey) Material() *KeyMaterial {
	return &KeyMaterial{FixedCommits: pk.VK.FixedCommits, SigmaCommits: pk.VK.SigmaCommits}
}

// checkMaterialShape verifies that persisted material carries one
// commitment per column of the circuit it claims to serve.
func checkMaterialShape(cs *CS, m *KeyMaterial) error {
	if m == nil {
		return fmt.Errorf("plonkish: nil key material: %w", zkerrors.ErrMalformedArtifact)
	}
	if nf, ns := cs.NumFixed+3, len(cs.PermCols()); len(m.FixedCommits) != nf || len(m.SigmaCommits) != ns {
		return fmt.Errorf("plonkish: key material has %d fixed and %d sigma commitments, circuit wants %d and %d: %w",
			len(m.FixedCommits), len(m.SigmaCommits), nf, ns, zkerrors.ErrMalformedArtifact)
	}
	return nil
}

// SetupFromMaterial rebuilds full proving and verifying keys from persisted
// key material, skipping the commitment MSMs that dominate Setup. The
// circuit, row count, and fixed values are re-derived by the caller (they
// are deterministic per model) and interpolated exactly as Setup does; the
// material supplies only the commitments. Commitments from a different
// model, layout, or a tampered file are caught by the caller's
// verifying-key digest check.
func SetupFromMaterial(cs *CS, n int, fixed [][]ff.Element, backend pcs.Backend, m *KeyMaterial) (*ProvingKey, *VerifyingKey, error) {
	if err := validateShape(cs, n); err != nil {
		return nil, nil, err
	}
	if err := checkMaterialShape(cs, m); err != nil {
		return nil, nil, err
	}
	pk, err := setupSkeleton(cs, n, fixed, backend)
	if err != nil {
		return nil, nil, err
	}
	interpolateColumns(pk)
	return finishKeys(pk, m.FixedCommits, m.SigmaCommits)
}

// SetupVK builds a verification-only key from persisted material: the
// commitments come straight from the material and no fixed-column values
// are needed, so the path performs no interpolation and no MSM work at all
// — the verify-side answer to Setup's full keygen. The returned key
// verifies proofs; it cannot prove.
func SetupVK(cs *CS, n int, backend pcs.Backend, m *KeyMaterial) (*VerifyingKey, error) {
	if err := validateShape(cs, n); err != nil {
		return nil, err
	}
	if err := checkMaterialShape(cs, m); err != nil {
		return nil, err
	}
	scheme, err := pcs.New(backend, n)
	if err != nil {
		return nil, err
	}
	u := n - ZKRows
	quotient, queries := compileConstraints(cs, u)
	return &VerifyingKey{
		CS: cs, N: n, U: u, DMax: cs.Degree(),
		FixedCommits: m.FixedCommits,
		SigmaCommits: m.SigmaCommits,
		Quotient:     quotient,
		Queries:      queries,
		Scheme:       scheme,
	}, nil
}
