package pcs

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/curve"
	"repro/internal/ff"
)

// The commitment setup (DESIGN.md §13–14). Each backend keeps one process-
// wide setup record: the coefficient basis every commitment MSM runs against
// (KZG's powers τⁱ·G, IPA's hash-to-curve points Gᵢ), grown on demand and
// never shrunk; its commit table (fixedbase.go); and its suffix-summed
// Lagrange bases, one per domain size, each with its own table
// (lagrange.go). Scheme instances hold a prefix of the basis, and the
// prefix carries MaxLen, Commit and CommitLagrange for both backends. A
// backend supplies only what differs: how its basis grows, how a Lagrange
// basis is derived from it, and how an installed setup is spot-checked.

// setup is one backend's process-wide commitment setup.
type setup struct {
	// What the backend supplies.
	grow   func(s *setup, start, n int) []curve.Affine         // basis points start…n−1; caller holds mu
	derive func(s *setup, basis []curve.Affine) []curve.Affine // Lagrange basis of the size-len(basis) domain
	check  func(pts []curve.Affine) error                      // spot check of a setup laid out as SRSPoints returns it
	anchor func() curve.Affine                                 // a point the setup carries after its basis, or nil
	pow2   bool                                                // instance lengths round up to a power of two

	mu     sync.Mutex
	basis  []curve.Affine // instances hold capped prefixes of it
	comb   *fixedBase     // KZG's generator comb, built on first use; guarded by mu
	tables commitTableCache
	// lagrange holds the Lagrange basis of the size-2^i domain in slot i.
	lagrange [bits.UintSize]atomic.Pointer[lagrangeBasis]
}

var setups = [...]setup{
	KZG: {grow: kzgPowers, derive: kzgLagrange, check: checkKZG},
	IPA: {grow: ipaPoints, derive: ipaLagrange, check: checkIPA, anchor: ipaAnchor, pow2: true},
}

func setupOf(b Backend) (*setup, error) {
	if b != KZG && b != IPA {
		return nil, fmt.Errorf("pcs: unknown backend %v", b)
	}
	return &setups[b], nil
}

// prefix returns the first n basis points (n rounded up to a power of two
// where the backend needs it), growing the basis first if it is shorter.
func (s *setup) prefix(n int) prefix {
	if s.pow2 {
		m := 1
		for m < n {
			m <<= 1
		}
		n = m
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if start := len(s.basis); start < n {
		s.basis = append(s.basis, s.grow(s, start, n)...)
	}
	return prefix{s, s.basis[:n:n]}
}

// prefix is a scheme instance's share of its backend's setup: the first n
// basis points. KZGScheme and IPAScheme embed it.
type prefix struct {
	setup *setup
	basis []curve.Affine
}

// MaxLen implements Scheme.
func (p prefix) MaxLen() int { return len(p.basis) }

// Commit implements Scheme. Large commitments run against the lazily-built
// fixed-base table over the backend's basis (see fixedbase.go).
func (p prefix) Commit(c []ff.Element) curve.Affine {
	cc, basis := p.target(len(c), false)
	return commitMSM(cc, basis, c)
}

// CommitLagrange implements Scheme: the MSM of the row differences of evals
// over the domain's suffix-summed Lagrange basis (lagrange.go).
func (p prefix) CommitLagrange(evals []ff.Element) curve.Affine {
	cc, basis := p.target(len(evals), true)
	buf := diffScratch.Get(len(evals))
	defer diffScratch.Put(buf)
	return commitMSM(cc, basis, rowDiffs(*buf, evals))
}

// target returns the basis an n-vector commits against, with its table
// cache: the coefficient basis, or with lagrange set the suffix-summed
// Lagrange basis of the size-n domain, derived here on first use.
func (p prefix) target(n int, lagrange bool) (*commitTableCache, []curve.Affine) {
	if !lagrange {
		if n > len(p.basis) {
			panic("pcs: polynomial exceeds the setup size")
		}
		return &p.setup.tables, p.basis
	}
	if n == 0 || n > len(p.basis) || n&(n-1) != 0 {
		panic("pcs: column length is not a power of two within the setup")
	}
	l := p.setup.lagrangeBasis(p.basis[:n])
	return &l.tables, l.basis
}

// warm does the set-up work a first commit of an n-vector would do — the
// Lagrange derivation and the table build — and nothing else, so that
// CommitBatch runs that work with the whole pool before it fans out. Once
// both are built it costs two atomic loads.
func (p prefix) warm(n int, lagrange bool) {
	cc, basis := p.target(n, lagrange)
	if n >= commitTableMinLen {
		cc.get(basis, n)
	}
}

// lagrangeBasis returns the suffix-summed Lagrange basis of the
// size-len(basis) domain, deriving it from basis on first use. Concurrent
// first calls derive it exactly once, outside mu: the slot's Once runs the
// derivation, so sizes and backends derive independently.
func (s *setup) lagrangeBasis(basis []curve.Affine) *lagrangeBasis {
	slot := &s.lagrange[bits.TrailingZeros(uint(len(basis)))]
	l := slot.Load()
	for l == nil {
		slot.CompareAndSwap(nil, &lagrangeBasis{})
		l = slot.Load()
	}
	l.once.Do(func() { l.basis = s.derive(s, basis) })
	return l
}

// kzgTau is the KZG trapdoor: a fixed public derivation standing in for the
// perpetual-powers-of-tau ceremony artifact (one SRS shared by every prover
// and verifier). A production deployment would load the ceremony's SRS
// instead; see KZGScheme for the verification-oracle substitution this
// build makes anyway.
var kzgTau = sync.OnceValue(func() ff.Element {
	return ff.HashToField([]byte("zkml-go/powers-of-tau-stand-in/v1"))
})

// ipaAnchor is the IPA inner-product anchor U.
var ipaAnchor = sync.OnceValue(func() curve.Affine { return curve.HashToCurve("ipa-u", 0) })

// kzgPowers grows the KZG basis by the powers τⁱ·G, i in [start, n), each a
// generator-comb multiplication (32 mixed additions instead of a double-and-
// add ladder).
func kzgPowers(s *setup, start, n int) []curve.Affine {
	tau := kzgTau()
	scalars := make([]ff.Element, n-start)
	scalars[0].ExpUint64(&tau, uint64(start))
	for i := 1; i < len(scalars); i++ {
		scalars[i].Mul(&scalars[i-1], &tau)
	}
	setupWork.kzgPowersExtended.Add(int64(len(scalars)))
	return s.generatorComb().mulAll(scalars)
}

// generatorComb returns the comb table for G, building it on first use. Only
// kzgPowers and kzgLagrange call it, so installing an SRS builds nothing.
// Caller holds s.mu; the returned table is immutable.
func (s *setup) generatorComb() *fixedBase {
	if s.comb == nil {
		s.comb = fixedBaseTable(curve.Generator())
		setupWork.kzgCombBuilds.Add(1)
	}
	return s.comb
}

// ipaPoints grows the IPA basis by hash-to-curve: no trusted setup exists,
// and derivation dominates IPA set-up time.
func ipaPoints(_ *setup, start, n int) []curve.Affine {
	pts := make([]curve.Affine, n-start)
	for i := range pts {
		pts[i] = curve.HashToCurve("ipa-basis", start+i)
	}
	setupWork.ipaPointsDerived.Add(int64(len(pts)))
	return pts
}

// checkKZG spot-checks powers 0, 1 and n−1 against the stand-in trapdoor.
func checkKZG(powers []curve.Affine) error {
	if len(powers) == 0 {
		return fmt.Errorf("pcs: empty KZG SRS")
	}
	g, tau := curve.Generator(), kzgTau()
	if !powers[0].Equal(&g) {
		return fmt.Errorf("pcs: KZG SRS power 0 is not the generator")
	}
	for _, i := range []int{1, len(powers) - 1} {
		if i < 1 || i >= len(powers) {
			continue
		}
		var ti ff.Element
		ti.ExpUint64(&tau, uint64(i))
		if want := curve.ScalarMul(&g, &ti).ToAffine(); !powers[i].Equal(&want) {
			return fmt.Errorf("pcs: KZG SRS power %d does not match the process ceremony", i)
		}
	}
	return nil
}

// checkIPA spot-checks the anchor and basis point 0 against hash-to-curve.
func checkIPA(pts []curve.Affine) error {
	if len(pts) < 2 {
		return fmt.Errorf("pcs: IPA setup of %d points has no basis and anchor", len(pts))
	}
	if u := ipaAnchor(); !pts[len(pts)-1].Equal(&u) {
		return fmt.Errorf("pcs: IPA anchor does not match derivation")
	}
	if g0 := curve.HashToCurve("ipa-basis", 0); !pts[0].Equal(&g0) {
		return fmt.Errorf("pcs: IPA basis point 0 does not match derivation")
	}
	return nil
}

// SRSPoints returns the commitment-scheme setup a size-n circuit uses, as
// the points a ceremony (KZG) or a hash-to-curve derivation (IPA) produces:
// the n powers of tau, or the n basis points followed by the inner-product
// anchor. The setup is generated first if the process has not yet grown it to
// n. The generator comb and the Lagrange bases of either backend are not part
// of it; they are rebuilt on first use.
func SRSPoints(b Backend, n int) ([]curve.Affine, error) {
	if n <= 0 {
		return nil, fmt.Errorf("pcs: SRS size %d must be positive", n)
	}
	s, err := setupOf(b)
	if err != nil {
		return nil, err
	}
	pts := s.prefix(n).basis
	if s.anchor != nil {
		pts = append(pts, s.anchor()) // the prefix is capped: this copies
	}
	return pts, nil
}

// InstallSRS installs a setup laid out as SRSPoints returns it into the
// backend's setup record, so NewKZG / NewIPA at or below its size do a
// slice instead of a keygen. An install never shrinks the basis, and keeps
// a capped slice of pts, so later growth never writes into the caller's
// array. The points are spot-checked against the process's own derivation —
// KZG powers 0, 1 and n−1 against the stand-in trapdoor, the IPA anchor and
// basis point 0 against hash-to-curve — so a setup from another "ceremony"
// is rejected rather than silently producing unverifiable proofs. A full
// check would cost the keygen the install exists to skip; a wrong interior
// point only yields proofs that fail verification.
func InstallSRS(b Backend, pts []curve.Affine) error {
	s, err := setupOf(b)
	if err != nil {
		return err
	}
	if err := s.check(pts); err != nil {
		return err
	}
	if s.anchor != nil {
		pts = pts[:len(pts)-1]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(pts) > len(s.basis) {
		s.basis = slices.Clip(pts)
	}
	return nil
}

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
	// KZGPowersExtended counts SRS powers computed by growth (each is a
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
