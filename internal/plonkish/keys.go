package plonkish

import (
	"fmt"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/parallel"
	"repro/internal/pcs"
	"repro/internal/poly"
	"repro/internal/zkerrors"
)

// Keys come in two layers. SetupVK builds the verifying key from the circuit
// and its column commitments: no column values, no interpolation, no MSM.
// (*VerifyingKey).ProvingKey completes it with the fixed values: one IFFT per
// column, no MSM. Setup runs both after committing the columns itself; a
// stored artifact supplies the commitments instead (DESIGN.md §13).

// SetupVK builds the verifying key for a circuit with n rows from its
// fixed-column commitments (the circuit's fixed columns, then q_active, l_0
// and l_u) and one sigma commitment per permutation column. The commitments
// are taken as given: a verifying key over the wrong ones carries another
// Digest, which is what a loader checks. A shape or commitment-count
// mismatch wraps zkerrors.ErrMalformedArtifact.
func SetupVK(cs *CS, n int, backend pcs.Backend, fixedCommits, sigmaCommits []curve.Affine) (*VerifyingKey, error) {
	if err := validateShape(cs, n); err != nil {
		return nil, fmt.Errorf("%w: %w", err, zkerrors.ErrMalformedArtifact)
	}
	if nf, ns := numKeyFixed(cs), len(cs.PermCols()); len(fixedCommits) != nf || len(sigmaCommits) != ns {
		return nil, fmt.Errorf("plonkish: got %d fixed and %d sigma commitments, circuit wants %d and %d: %w",
			len(fixedCommits), len(sigmaCommits), nf, ns, zkerrors.ErrMalformedArtifact)
	}
	scheme, err := pcs.New(backend, n)
	if err != nil {
		return nil, err
	}
	u := n - ZKRows
	quotient, queries := compileConstraints(cs, u)
	return &VerifyingKey{
		CS: cs, N: n, U: u, DMax: cs.Degree(),
		FixedCommits: fixedCommits,
		SigmaCommits: sigmaCommits,
		Quotient:     quotient,
		Queries:      queries,
		Scheme:       scheme,
	}, nil
}

// ProvingKey completes the verifying key into a proving key from the
// circuit's fixed-column values (length cs.NumFixed, each of length n). It
// commits nothing: the values must be the ones the verifying key's
// commitments were made from, or the proofs will not verify.
func (vk *VerifyingKey) ProvingKey(fixed [][]ff.Element) (*ProvingKey, error) {
	cols, err := keyColumns(vk.CS, vk.N, fixed)
	if err != nil {
		return nil, err
	}
	return vk.complete(cols), nil
}

// complete builds the proving key over the key columns' values (keyColumns'
// order): one IFFT per column, fanned out across columns, the lookup
// program, and the key columns' values on the quotient's coset parts
// (keyCosetParts). The quotient program, queries and scheme are the
// verifying key's.
func (vk *VerifyingKey) complete(cols [][]ff.Element) *ProvingKey {
	dom := poly.NewDomain(vk.N)
	polys := make([][]ff.Element, len(cols))
	parallel.For(len(cols), func(i int) {
		polys[i] = append([]ff.Element(nil), cols[i]...)
		dom.IFFT(polys[i])
	})
	nf := numKeyFixed(vk.CS)
	pk := &ProvingKey{
		CS: vk.CS, N: vk.N, U: vk.U, DMax: vk.DMax,
		Domain:       dom,
		ExtDomain:    poly.NewDomain(ExtDomainSize(vk.N, vk.DMax)),
		FixedVals:    cols[:nf:nf],
		FixedPolys:   polys[:nf:nf],
		SigmaVals:    cols[nf:],
		SigmaPolys:   polys[nf:],
		Quotient:     vk.Quotient,
		LookupInputs: compileLookupInputs(vk.CS),
		Queries:      vk.Queries,
		Scheme:       vk.Scheme,
		VK:           vk,
	}
	pk.CosetParts = keyCosetParts(pk)
	return pk
}

// keyCosetParts transforms every fixed and sigma column the quotient program
// reads onto each of the quotient's QuotientPieces(DMax) coset parts:
// parts[c][j] is CosetPartFFT j of column c's polynomial. These values are
// the same for every proof the key makes, so the prover binds them instead
// of transforming the columns again; they are never stored.
func keyCosetParts(pk *ProvingKey) map[Col][][]ff.Element {
	queried, _ := pk.Quotient.columns()
	var cols []Col
	for _, c := range queried {
		if keyCol(c) {
			cols = append(cols, c)
		}
	}
	pieces := QuotientPieces(pk.DMax)
	vals := make([][]ff.Element, len(cols)*pieces)
	parallel.For(len(vals), func(i int) {
		c := cols[i/pieces]
		p := pk.FixedPolys
		if c.Kind == PermSigma {
			p = pk.SigmaPolys
		}
		vals[i] = append(make([]ff.Element, 0, pk.N), p[c.Index]...)
		pk.ExtDomain.CosetPartFFT(vals[i], i%pieces)
	})
	parts := make(map[Col][][]ff.Element, len(cols))
	for k, c := range cols {
		parts[c] = vals[k*pieces : (k+1)*pieces : (k+1)*pieces]
	}
	return parts
}

// keyCol reports whether c is a column of the key (fixed or sigma), whose
// values are the same for every proof.
func keyCol(c Col) bool { return c.Kind == Fixed || c.Kind == PermSigma }
