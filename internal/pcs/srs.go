package pcs

import (
	"fmt"
	"sync/atomic"

	"repro/internal/curve"
	"repro/internal/ff"
)

// setupWork counts the expensive SRS work performed since process start.
// Tests and the zkmld /stats endpoint snapshot it around an operation to
// assert that warm paths (cached systems, loaded artifacts) do zero
// setup work.
var setupWork struct {
	kzgPowersExtended  atomic.Int64
	kzgCombBuilds      atomic.Int64
	kzgLagrangeDerived atomic.Int64
	ipaPointsDerived   atomic.Int64
	ipaLagrangeDerived atomic.Int64
	commitTableBuilds  atomic.Int64
	commitTableHits    atomic.Int64
}

// SetupWork is a snapshot of the process-wide setup-work counters.
type SetupWork struct {
	// KZGPowersExtended counts SRS powers computed by extend (each is a
	// fixed-base comb multiplication).
	KZGPowersExtended int64 `json:"kzg_powers_extended"`
	// KZGCombBuilds counts generator comb-table constructions. The comb is
	// process-local and never stored: it is built once, by the first SRS
	// extension or Lagrange-basis derivation, so a process restarted from
	// the store counts one build in its first KZG prove and none at load.
	KZGCombBuilds int64 `json:"kzg_comb_builds"`
	// KZGLagrangeDerived counts Lagrange-basis SRS points derived (each a
	// comb multiplication; n per domain size, on its first Lagrange commit).
	KZGLagrangeDerived int64 `json:"kzg_lagrange_derived"`
	// IPAPointsDerived counts hash-to-curve basis points derived.
	IPAPointsDerived int64 `json:"ipa_points_derived"`
	// IPALagrangeDerived counts IPA Lagrange-basis points derived (n per
	// domain size, by one group FFT on its first Lagrange commit).
	IPALagrangeDerived int64 `json:"ipa_lagrange_derived"`
	// CommitTableBuilds counts fixed-base commitment-table constructions:
	// at most one per backend per basis size over the coefficient basis,
	// plus one per backend and domain size over its Lagrange basis
	// (fixedbase.go, lagrange.go).
	CommitTableBuilds int64 `json:"commit_table_builds"`
	// CommitTableHits counts commitments served by a cached table. Hits are
	// the amortized fast path, not setup work, so IsZero ignores them.
	CommitTableHits int64 `json:"commit_table_hits"`
}

// SetupWorkSnapshot returns the current setup-work counters. Subtract two
// snapshots to measure the work done by an operation.
func SetupWorkSnapshot() SetupWork {
	return SetupWork{
		KZGPowersExtended:  setupWork.kzgPowersExtended.Load(),
		KZGCombBuilds:      setupWork.kzgCombBuilds.Load(),
		KZGLagrangeDerived: setupWork.kzgLagrangeDerived.Load(),
		IPAPointsDerived:   setupWork.ipaPointsDerived.Load(),
		IPALagrangeDerived: setupWork.ipaLagrangeDerived.Load(),
		CommitTableBuilds:  setupWork.commitTableBuilds.Load(),
		CommitTableHits:    setupWork.commitTableHits.Load(),
	}
}

// Sub returns the per-field difference w - prev.
func (w SetupWork) Sub(prev SetupWork) SetupWork {
	return SetupWork{
		KZGPowersExtended:  w.KZGPowersExtended - prev.KZGPowersExtended,
		KZGCombBuilds:      w.KZGCombBuilds - prev.KZGCombBuilds,
		KZGLagrangeDerived: w.KZGLagrangeDerived - prev.KZGLagrangeDerived,
		IPAPointsDerived:   w.IPAPointsDerived - prev.IPAPointsDerived,
		IPALagrangeDerived: w.IPALagrangeDerived - prev.IPALagrangeDerived,
		CommitTableBuilds:  w.CommitTableBuilds - prev.CommitTableBuilds,
		CommitTableHits:    w.CommitTableHits - prev.CommitTableHits,
	}
}

// IsZero reports whether the snapshot records no setup work. Commit-table
// hits are deliberately excluded: a hit is the amortized steady state, not
// setup work, and warm-path assertions must not trip on it.
func (w SetupWork) IsZero() bool {
	return w.KZGPowersExtended == 0 && w.KZGCombBuilds == 0 &&
		w.KZGLagrangeDerived == 0 && w.IPAPointsDerived == 0 &&
		w.IPALagrangeDerived == 0 && w.CommitTableBuilds == 0
}

// SRSPoints returns the commitment-scheme setup a size-n circuit uses, as
// the points a ceremony (KZG) or a hash-to-curve derivation (IPA) produces:
// the n powers of tau, or the n basis points followed by the inner-product
// anchor. The setup is generated first if the process has not yet grown it to
// n. The generator comb and the Lagrange bases of either backend are not part
// of it; they are rebuilt on first use (kzg.go, lagrange.go).
func SRSPoints(b Backend, n int) ([]curve.Affine, error) {
	if n <= 0 {
		return nil, fmt.Errorf("pcs: SRS size %d must be positive", n)
	}
	switch b {
	case KZG:
		return NewKZG(n).powers[:n:n], nil
	case IPA:
		s := NewIPA(n)
		return append(append([]curve.Affine(nil), s.basis...), s.u), nil
	}
	return nil, fmt.Errorf("pcs: unknown backend %v", b)
}

// InstallSRS installs a setup laid out as SRSPoints returns it into the
// process-wide scheme caches, so NewKZG / NewIPA at or below its size do a
// slice instead of a keygen. An install never shrinks the cached setup. The
// points are spot-checked against the process's own derivation — KZG powers
// 0, 1 and n−1 against the stand-in trapdoor, the IPA anchor and basis point
// 0 against hash-to-curve — so a setup from another "ceremony" is rejected
// rather than silently producing unverifiable proofs. A full check would cost
// the keygen the install exists to skip; a wrong interior point only yields
// proofs that fail verification.
func InstallSRS(b Backend, pts []curve.Affine) error {
	switch b {
	case KZG:
		return installKZG(pts)
	case IPA:
		if len(pts) < 2 {
			return fmt.Errorf("pcs: IPA setup of %d points has no basis and anchor", len(pts))
		}
		return installIPA(pts[:len(pts)-1], pts[len(pts)-1])
	}
	return fmt.Errorf("pcs: unknown backend %v", b)
}

func installKZG(powers []curve.Affine) error {
	if len(powers) == 0 {
		return fmt.Errorf("pcs: empty KZG SRS")
	}
	kzgMu.Lock()
	defer kzgMu.Unlock()
	if kzgShared == nil {
		tau := ff.HashToField([]byte("zkml-go/powers-of-tau-stand-in/v1"))
		kzgShared = &KZGScheme{tau: tau, g: curve.Generator()}
	}
	g := kzgShared.g
	if !powers[0].Equal(&g) {
		return fmt.Errorf("pcs: KZG SRS power 0 is not the generator")
	}
	for _, i := range []int{1, len(powers) - 1} {
		if i < 1 || i >= len(powers) {
			continue
		}
		var ti ff.Element
		ti.ExpUint64(&kzgShared.tau, uint64(i))
		want := curve.ScalarMul(&g, &ti).ToAffine()
		if !powers[i].Equal(&want) {
			return fmt.Errorf("pcs: KZG SRS power %d does not match the process ceremony", i)
		}
	}
	if len(powers) > len(kzgShared.powers) {
		kzgShared.powers = powers
	}
	return nil
}

func installIPA(basis []curve.Affine, anchor curve.Affine) error {
	wantU := curve.HashToCurve("ipa-u", 0)
	if !anchor.Equal(&wantU) {
		return fmt.Errorf("pcs: IPA anchor does not match derivation")
	}
	want0 := curve.HashToCurve("ipa-basis", 0)
	if !basis[0].Equal(&want0) {
		return fmt.Errorf("pcs: IPA basis point 0 does not match derivation")
	}
	ipaMu.Lock()
	defer ipaMu.Unlock()
	if ipaU == nil {
		ipaU = &wantU
	}
	if len(basis) > len(ipaBasis) {
		ipaBasis = basis
	}
	return nil
}
