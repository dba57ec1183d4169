package pcs

import (
	"fmt"
	"sync"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/parallel"
	"repro/internal/poly"
	"repro/internal/transcript"
	"repro/internal/zkerrors"
)

// KZGScheme is the KZG polynomial commitment: commitments are MSMs against
// a powers-of-tau SRS; an opening at z is a single quotient-witness
// commitment.
//
// Substitution note (see DESIGN.md §4): the production verification
// equation e(C - y·G, H) = e(pi, (tau - z)·H) needs BN254 pairings, which
// are out of scope for this stdlib-only build. The verifier instead checks
// the identical algebraic relation (tau - z)·pi == C - y·G directly in G1
// using the setup trapdoor retained in the SRS — the same proofs, prover
// cost, and proof sizes as real KZG, with a test-oracle verifier.
type KZGScheme struct {
	powers []curve.Affine // tau^i * G
	tau    ff.Element     // trapdoor (simulation oracle; see note above)
	g      curve.Affine
}

var (
	kzgMu     sync.Mutex
	kzgShared *KZGScheme // grown on demand; SRS generation is the slow part
	// kzgTable is the fixed-base comb table for the generator, built on
	// first use and reused by every SRS growth call and Lagrange-basis
	// derivation (it only depends on G, and rebuilding the 32x256 table used
	// to dominate repeated extends). It is process-local: rebuilding it
	// (~10 ms) is cheaper than decompressing a stored copy. It is not a
	// curve.FixedBaseTable, which computes one sum Σ sᵢ·Bᵢ; the comb computes
	// n separate multiples of one point.
	kzgTable *fixedBase
)

// NewKZG returns a KZG scheme supporting polynomials of up to maxLen
// coefficients. SRS generation is deterministic per process and shared
// across instances (a per-process "ceremony").
func NewKZG(maxLen int) *KZGScheme {
	kzgMu.Lock()
	defer kzgMu.Unlock()
	if kzgShared == nil {
		// The trapdoor is a fixed public derivation standing in for the
		// perpetual-powers-of-tau ceremony artifact (one SRS shared by
		// every prover and verifier). A production deployment would load
		// the ceremony's SRS instead; see the type doc for the
		// verification-oracle substitution this build makes anyway.
		tau := ff.HashToField([]byte("zkml-go/powers-of-tau-stand-in/v1"))
		kzgShared = &KZGScheme{tau: tau, g: curve.Generator()}
	}
	if len(kzgShared.powers) < maxLen {
		kzgShared.extend(maxLen)
	}
	return &KZGScheme{powers: kzgShared.powers[:maxLen], tau: kzgShared.tau, g: kzgShared.g}
}

// extend grows the SRS to maxLen powers using a fixed-base comb table for
// the generator (32 mixed additions per power instead of a full double-and-
// add ladder). The powers are computed in parallel chunks, each seeding its
// local tau power with one allocation-free ExpUint64. Caller holds kzgMu.
func (k *KZGScheme) extend(maxLen int) {
	comb := generatorComb()
	start := len(k.powers)
	setupWork.kzgPowersExtended.Add(int64(maxLen - start))
	jacs := make([]curve.Jac, maxLen-start)
	parallel.Range(len(jacs), func(lo, hi int) {
		var tauPow ff.Element
		tauPow.ExpUint64(&k.tau, uint64(start+lo))
		for i := lo; i < hi; i++ {
			jacs[i] = comb.mul(&tauPow)
			tauPow.Mul(&tauPow, &k.tau)
		}
	})
	k.powers = append(k.powers, curve.BatchToAffine(jacs)...)
}

// generatorComb returns the comb table for G, building it on first use. Only
// extend and deriveLagrange call it, so installing an SRS builds nothing.
// Caller holds kzgMu; the returned table is immutable.
func generatorComb() *fixedBase {
	if kzgTable == nil {
		kzgTable = fixedBaseTable(curve.Generator())
		setupWork.kzgCombBuilds.Add(1)
	}
	return kzgTable
}

// fixedBase is a w=8 comb table: multiples[w][d] = d * 2^(8w) * G.
type fixedBase struct {
	windows [32][256]curve.Affine
}

func fixedBaseTable(g curve.Affine) *fixedBase {
	t := &fixedBase{}
	base := g.ToJac()
	for w := 0; w < 32; w++ {
		var acc curve.Jac
		jacs := make([]curve.Jac, 256)
		for d := 0; d < 256; d++ {
			jacs[d] = acc
			acc.AddAssign(&base)
		}
		aff := curve.BatchToAffine(jacs)
		copy(t.windows[w][:], aff)
		base = acc // base *= 2^8 after 256 additions
	}
	return t
}

func (t *fixedBase) mul(s *ff.Element) curve.Jac {
	b := s.Bytes() // big-endian 32 bytes
	var acc curve.Jac
	for w := 0; w < 32; w++ {
		d := b[31-w] // little-endian byte w
		if d != 0 {
			acc.AddMixed(&t.windows[w][d])
		}
	}
	return acc
}

// Backend implements Scheme.
func (k *KZGScheme) Backend() Backend { return KZG }

// MaxLen implements Scheme.
func (k *KZGScheme) MaxLen() int { return len(k.powers) }

// Commit implements Scheme. Large commitments run against the lazily-built
// fixed-base table over the shared powers-of-tau (see fixedbase.go).
func (k *KZGScheme) Commit(p []ff.Element) curve.Affine {
	if len(p) > len(k.powers) {
		panic("pcs: polynomial exceeds SRS size")
	}
	return commitMSM(&kzgCommitTables, k.powers, p)
}

// Open implements Scheme: pi = Commit((p - p(z)) / (X - z)).
func (k *KZGScheme) Open(tr *transcript.Transcript, p []ff.Element, z ff.Element) *Opening {
	defer recordOpen()()
	y := poly.Eval(p, z)
	shifted := append([]ff.Element(nil), p...)
	if len(shifted) == 0 {
		shifted = []ff.Element{ff.Zero()}
	}
	shifted[0].Sub(&shifted[0], &y)
	q := poly.DivideByLinear(shifted, z)
	pi := k.Commit(q)
	tr.AppendPoint("kzg-witness", pi)
	return &Opening{KZGWitness: pi}
}

// Verify implements Scheme, checking (tau - z)·pi == C - y·G in G1 (the
// trapdoor form of the pairing equation; see type doc). The opening is
// untrusted: a nil opening or one carrying IPA fields (which this check
// would silently ignore, making the wire encoding malleable) is rejected
// as malformed.
func (k *KZGScheme) Verify(tr *transcript.Transcript, c curve.Affine, z, y ff.Element, o *Opening) error {
	if o == nil {
		return fmt.Errorf("pcs: nil KZG opening: %w", zkerrors.ErrMalformedProof)
	}
	if len(o.L) != 0 || len(o.R) != 0 || !o.A.IsZero() {
		return fmt.Errorf("pcs: KZG opening carries IPA fields: %w", zkerrors.ErrMalformedProof)
	}
	tr.AppendPoint("kzg-witness", o.KZGWitness)
	var s ff.Element
	s.Sub(&k.tau, &z)
	lhs := curve.ScalarMul(&o.KZGWitness, &s)
	yG := curve.ScalarMul(&k.g, &y)
	rhs := c.ToJac()
	yG.NegAssign()
	rhs.AddAssign(&yG)
	la, ra := lhs.ToAffine(), rhs.ToAffine()
	if !la.Equal(&ra) {
		return fmt.Errorf("pcs: KZG opening check failed: %w", zkerrors.ErrVerifyFailed)
	}
	return nil
}
