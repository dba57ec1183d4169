package pcs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/zkerrors"
)

// SRS wire format: magic, version, backend, then backend-specific sections
// of 32-byte compressed points. The bytes are untrusted (an artifact file
// may be copied between machines or corrupted on disk): every length prefix
// is capped by the bytes actually remaining and every point is revalidated
// against the curve equation. For KZG the powers are additionally
// spot-checked against the process's deterministic trapdoor (first, second,
// and last power), so an artifact from a different "ceremony" is rejected
// rather than silently producing unverifiable proofs.

var srsMagic = [4]byte{'Z', 'S', 'R', 'S'}

const srsVersion = 1

// errArtifact returns a context-wrapped zkerrors.ErrMalformedArtifact.
func errArtifact(format string, args ...any) error {
	return fmt.Errorf("pcs: %s: %w", fmt.Sprintf(format, args...), zkerrors.ErrMalformedArtifact)
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
	commitTableBuilds  atomic.Int64
	commitTableHits    atomic.Int64
}

// SetupWork is a snapshot of the process-wide setup-work counters.
type SetupWork struct {
	// KZGPowersExtended counts SRS powers computed by extend (each is a
	// fixed-base comb multiplication).
	KZGPowersExtended int64 `json:"kzg_powers_extended"`
	// KZGCombBuilds counts generator comb-table constructions.
	KZGCombBuilds int64 `json:"kzg_comb_builds"`
	// KZGLagrangeDerived counts Lagrange-basis SRS points derived (each a
	// comb multiplication; n per domain size, on its first Lagrange commit).
	KZGLagrangeDerived int64 `json:"kzg_lagrange_derived"`
	// IPAPointsDerived counts hash-to-curve basis points derived.
	IPAPointsDerived int64 `json:"ipa_points_derived"`
	// CommitTableBuilds counts fixed-base commitment-table constructions:
	// at most one per backend per basis size over the coefficient basis,
	// plus one per KZG domain size over its Lagrange basis (fixedbase.go,
	// lagrange.go).
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
		w.CommitTableBuilds == 0
}

// ExportSRS serializes the commitment-scheme setup for a backend at size
// maxLen: the KZG powers-of-tau plus the generator comb table, or the IPA
// basis plus its inner-product anchor. The setup is generated first if the
// process has not yet grown it to maxLen.
func ExportSRS(b Backend, maxLen int) ([]byte, error) {
	if maxLen <= 0 {
		return nil, fmt.Errorf("pcs: export size %d must be positive", maxLen)
	}
	var buf bytes.Buffer
	buf.Write(srsMagic[:])
	buf.WriteByte(srsVersion)
	buf.WriteByte(byte(b))
	writePoints := func(pts []curve.Affine) {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(pts)))
		buf.Write(n[:])
		for i := range pts {
			p := pts[i].Bytes()
			buf.Write(p[:])
		}
	}
	switch b {
	case KZG:
		NewKZG(maxLen) // grow the shared SRS if needed
		kzgMu.Lock()
		writePoints(kzgShared.powers[:maxLen])
		comb := generatorComb()
		for w := range comb.windows {
			writePoints(comb.windows[w][:])
		}
		kzgMu.Unlock()
	case IPA:
		s := NewIPA(maxLen)
		writePoints(s.basis)
		writePoints([]curve.Affine{s.u})
	default:
		return nil, fmt.Errorf("pcs: unknown backend %v", b)
	}
	return buf.Bytes(), nil
}

// readPointSection decodes one length-prefixed section of compressed
// points, capping the count by the bytes remaining before allocating.
func readPointSection(r *bytes.Reader) ([]curve.Affine, error) {
	var n [4]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return nil, errArtifact("truncated SRS length prefix")
	}
	l := int(binary.BigEndian.Uint32(n[:]))
	if l > r.Len()/32 {
		return nil, errArtifact("SRS section claims %d points with %d bytes left", l, r.Len())
	}
	out := make([]curve.Affine, l)
	for i := range out {
		var b [32]byte
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return nil, errArtifact("truncated SRS point")
		}
		if err := out[i].SetBytes(b); err != nil {
			return nil, errArtifact("%v", err)
		}
	}
	return out, nil
}

// ImportSRS decodes a serialized setup and installs it into the
// process-wide scheme caches, so subsequent NewKZG/NewIPA calls at or below
// the imported size do a slice instead of a keygen. An import never shrinks
// the cached setup. Returns the backend and the imported size.
func ImportSRS(data []byte) (Backend, int, error) {
	r := bytes.NewReader(data)
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil || magic != srsMagic {
		return 0, 0, errArtifact("bad SRS magic")
	}
	ver, err := r.ReadByte()
	if err != nil || ver != srsVersion {
		return 0, 0, errArtifact("unsupported SRS version %d", ver)
	}
	bb, err := r.ReadByte()
	if err != nil {
		return 0, 0, errArtifact("truncated SRS backend")
	}
	switch b := Backend(bb); b {
	case KZG:
		powers, err := readPointSection(r)
		if err != nil {
			return 0, 0, err
		}
		if len(powers) == 0 {
			return 0, 0, errArtifact("empty KZG SRS")
		}
		table := &fixedBase{}
		for w := range table.windows {
			win, err := readPointSection(r)
			if err != nil {
				return 0, 0, err
			}
			if len(win) != 256 {
				return 0, 0, errArtifact("KZG comb window has %d entries, want 256", len(win))
			}
			copy(table.windows[w][:], win)
		}
		if r.Len() != 0 {
			return 0, 0, errArtifact("%d trailing SRS bytes", r.Len())
		}
		if err := installKZG(powers, table); err != nil {
			return 0, 0, err
		}
		return KZG, len(powers), nil
	case IPA:
		basis, err := readPointSection(r)
		if err != nil {
			return 0, 0, err
		}
		anchor, err := readPointSection(r)
		if err != nil {
			return 0, 0, err
		}
		if len(anchor) != 1 {
			return 0, 0, errArtifact("IPA anchor section has %d points, want 1", len(anchor))
		}
		if r.Len() != 0 {
			return 0, 0, errArtifact("%d trailing SRS bytes", r.Len())
		}
		if err := installIPA(basis, anchor[0]); err != nil {
			return 0, 0, err
		}
		return IPA, len(basis), nil
	default:
		return 0, 0, errArtifact("unknown SRS backend %d", bb)
	}
}

// installKZG validates an imported powers-of-tau sequence against the
// process's deterministic trapdoor (first, second, and last powers — a full
// check would cost the keygen the import exists to skip; a corrupt interior
// power only yields proofs that fail verification) and installs it if it
// extends the cached SRS.
func installKZG(powers []curve.Affine, table *fixedBase) error {
	kzgMu.Lock()
	defer kzgMu.Unlock()
	if kzgShared == nil {
		tau := ff.HashToField([]byte("zkml-go/powers-of-tau-stand-in/v1"))
		kzgShared = &KZGScheme{tau: tau, g: curve.Generator()}
	}
	g := kzgShared.g
	if !powers[0].Equal(&g) {
		return errArtifact("KZG SRS power 0 is not the generator")
	}
	checkPow := func(i int) error {
		var ti ff.Element
		ti.ExpUint64(&kzgShared.tau, uint64(i))
		want := curve.ScalarMul(&g, &ti).ToAffine()
		if !powers[i].Equal(&want) {
			return errArtifact("KZG SRS power %d does not match the process ceremony", i)
		}
		return nil
	}
	if len(powers) > 1 {
		if err := checkPow(1); err != nil {
			return err
		}
		if err := checkPow(len(powers) - 1); err != nil {
			return err
		}
	}
	if !table.windows[0][0].IsZero() {
		return errArtifact("KZG comb window entry 0 is not infinity")
	}
	if !table.windows[0][1].Equal(&g) {
		return errArtifact("KZG comb window 0 entry 1 is not the generator")
	}
	if len(powers) > len(kzgShared.powers) {
		kzgShared.powers = powers
	}
	if kzgTable == nil {
		kzgTable = table
	}
	return nil
}

// installIPA validates an imported basis against the hash-to-curve
// derivation (first basis point and the anchor — re-deriving every point
// would cost what the import skips) and installs it if it extends the
// cached basis.
func installIPA(basis []curve.Affine, anchor curve.Affine) error {
	if len(basis) == 0 {
		return errArtifact("empty IPA basis")
	}
	wantU := curve.HashToCurve("ipa-u", 0)
	if !anchor.Equal(&wantU) {
		return errArtifact("IPA anchor does not match derivation")
	}
	want0 := curve.HashToCurve("ipa-basis", 0)
	if !basis[0].Equal(&want0) {
		return errArtifact("IPA basis point 0 does not match derivation")
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
