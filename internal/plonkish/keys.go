package plonkish

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/pcs"
	"repro/internal/zkerrors"
)

// KeyMaterial is the expensive numeric output of Setup: the fixed and sigma
// commitments (the keygen MSMs). Everything else in a proving key — domains,
// fixed and sigma values, their interpolated polynomials, flattened
// constraints — is rebuilt from the circuit by the code keygen runs, so
// persisting this block turns cold-start keygen into a deserialize plus one
// IFFT per column. The wire format is versioned and treats the bytes as
// untrusted: every length prefix is capped by the bytes remaining and every
// point is revalidated on the curve. Structural failures wrap
// zkerrors.ErrMalformedArtifact.
type KeyMaterial struct {
	Backend pcs.Backend
	N       int
	// FixedCommits / SigmaCommits are the verifying key's content: one
	// commitment per fixed column (circuit fixed columns, then q_active,
	// l_0, l_u) and one per permutation column's sigma.
	FixedCommits []curve.Affine
	SigmaCommits []curve.Affine
}

var keyMagic = [4]byte{'Z', 'K', 'E', 'Y'}

const keyVersion = 2

// errArtifact returns a context-wrapped zkerrors.ErrMalformedArtifact.
func errArtifact(format string, args ...any) error {
	return fmt.Errorf("plonkish: %s: %w", fmt.Sprintf(format, args...), zkerrors.ErrMalformedArtifact)
}

// Material extracts the persistable key material from a proving key.
func (pk *ProvingKey) Material() *KeyMaterial {
	return &KeyMaterial{
		Backend:      pk.Scheme.Backend(),
		N:            pk.N,
		FixedCommits: pk.VK.FixedCommits,
		SigmaCommits: pk.VK.SigmaCommits,
	}
}

// MarshalBinary serializes the key material.
func (m *KeyMaterial) MarshalBinary() ([]byte, error) {
	if m.N <= 0 || m.N&(m.N-1) != 0 {
		return nil, fmt.Errorf("plonkish: key material rows %d must be a power of two", m.N)
	}
	var buf bytes.Buffer
	buf.Write(keyMagic[:])
	buf.WriteByte(keyVersion)
	buf.WriteByte(byte(m.Backend))
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(m.N))
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(m.FixedCommits)))
	binary.BigEndian.PutUint32(hdr[8:], uint32(len(m.SigmaCommits)))
	buf.Write(hdr[:])
	for _, c := range append(append([]curve.Affine(nil), m.FixedCommits...), m.SigmaCommits...) {
		b := c.Bytes()
		buf.Write(b[:])
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary deserializes key material. The bytes are untrusted:
// arbitrary input never panics and never allocates more than a constant
// multiple of len(data); all failures wrap zkerrors.ErrMalformedArtifact.
func (m *KeyMaterial) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil || magic != keyMagic {
		return errArtifact("bad key-material magic")
	}
	ver, err := r.ReadByte()
	if err != nil || ver != keyVersion {
		return errArtifact("unsupported key-material version %d", ver)
	}
	bb, err := r.ReadByte()
	if err != nil {
		return errArtifact("truncated key-material backend")
	}
	if b := pcs.Backend(bb); b != pcs.KZG && b != pcs.IPA {
		return errArtifact("unknown key-material backend %d", bb)
	}
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return errArtifact("truncated key-material header")
	}
	n := int(binary.BigEndian.Uint32(hdr[0:]))
	nf := int(binary.BigEndian.Uint32(hdr[4:]))
	ns := int(binary.BigEndian.Uint32(hdr[8:]))
	if n <= 0 || n&(n-1) != 0 {
		return errArtifact("key-material rows %d not a power of two", n)
	}
	// Every commit costs 32 bytes; cap the declared counts by what the
	// input actually holds before allocating anything.
	if need := (int64(nf) + int64(ns)) * 32; nf < 0 || ns < 0 || need != int64(r.Len()) {
		return errArtifact("key material declares %d+%d commitments (%d bytes) but carries %d",
			nf, ns, need, r.Len())
	}
	readPoints := func(count int) ([]curve.Affine, error) {
		out := make([]curve.Affine, count)
		for i := range out {
			var b [32]byte
			if _, err := io.ReadFull(r, b[:]); err != nil {
				return nil, errArtifact("truncated key-material point")
			}
			if err := out[i].SetBytes(b); err != nil {
				return nil, errArtifact("%v", err)
			}
		}
		return out, nil
	}
	m.Backend = pcs.Backend(bb)
	m.N = n
	if m.FixedCommits, err = readPoints(nf); err != nil {
		return err
	}
	if m.SigmaCommits, err = readPoints(ns); err != nil {
		return err
	}
	return nil
}

// checkMaterialShape verifies that persisted material structurally matches
// the circuit it claims to serve.
func checkMaterialShape(cs *CS, n int, backend pcs.Backend, m *KeyMaterial) error {
	if m == nil {
		return errArtifact("nil key material")
	}
	if m.Backend != backend {
		return errArtifact("key material backend %v, want %v", m.Backend, backend)
	}
	if m.N != n {
		return errArtifact("key material for %d rows, circuit has %d", m.N, n)
	}
	if want := cs.NumFixed + 3; len(m.FixedCommits) != want {
		return errArtifact("key material has %d fixed columns, circuit wants %d", len(m.FixedCommits), want)
	}
	if want := len(cs.PermCols()); len(m.SigmaCommits) != want {
		return errArtifact("key material has %d sigma columns, circuit wants %d", len(m.SigmaCommits), want)
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
	if err := checkMaterialShape(cs, n, backend, m); err != nil {
		return nil, nil, err
	}
	pk, err := setupSkeleton(cs, n, fixed, backend)
	if err != nil {
		return nil, nil, err
	}
	interpolateColumns(pk, nil)
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
	if err := checkMaterialShape(cs, n, backend, m); err != nil {
		return nil, err
	}
	scheme, err := pcs.New(backend, n)
	if err != nil {
		return nil, err
	}
	u := n - ZKRows
	constraints := buildConstraints(cs, u)
	return &VerifyingKey{
		CS: cs, N: n, U: u, DMax: cs.Degree(),
		FixedCommits: m.FixedCommits,
		SigmaCommits: m.SigmaCommits,
		Constraints:  constraints,
		Queries:      collectOpeningQueries(constraints),
		Scheme:       scheme,
	}, nil
}
