package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/curve"
	"repro/internal/gadgets"
	"repro/internal/model"
	"repro/internal/pcs"
	"repro/internal/plonkish"
	"repro/internal/wire"
	"repro/internal/zkerrors"
)

// Artifact file format (DESIGN.md §13): ZKMLART, one flat file holding what a
// load cannot re-derive from the model it already has:
//
//	magic    "ZKMLART" + ArtifactVersion
//	meta     model hash (32 B) + options fingerprint (32 B)
//	backend  1 B
//	config   the gadget config: dot, arith and ReLU strategy names (1 B
//	         length + bytes each), NumCols, ScaleBits, LookupBits (u32
//	         each), then UseConstDot, MultiAdd, MultiMax, MultiDot (1 B each)
//	cost     the optimizer's estimated proving seconds (float64 bits)
//	digest   the verifying-key digest the rebuilt keys must match (32 B)
//	fixed    u32 count + 32 B per fixed-column commitment
//	sigma    u32 count + 32 B per sigma commitment
//	srs      u32 count + 32 B per point, as pcs.SRSPoints lays them out
//
// Everything else is re-derived at load by the code compilation runs: the
// circuit, its grid (MinN of the re-synthesized circuit — the only grid
// Optimize picks), used rows, layout, proof-size estimate, and the key
// polynomials. The bytes are untrusted and read through wire.Reader: every
// count is capped by the bytes left before anything is allocated, every
// point is revalidated on the curve, and every structural failure wraps
// zkerrors.ErrMalformedArtifact.

// ArtifactVersion is the format version in the magic. The store carries it
// in the file name too, so an artifact of another version is a miss.
const ArtifactVersion = 3

var artifactMagic = [8]byte{'Z', 'K', 'M', 'L', 'A', 'R', 'T', ArtifactVersion}

// errArtifact returns a context-wrapped zkerrors.ErrMalformedArtifact.
func errArtifact(format string, args ...any) error {
	return fmt.Errorf("core: %s: %w", fmt.Sprintf(format, args...), zkerrors.ErrMalformedArtifact)
}

// ModelHash returns a digest binding a model specification: the SHA-256 of
// its canonical JSON encoding (encoding/json sorts map keys, so the bytes
// are deterministic per graph).
func ModelHash(g *model.Graph) ([32]byte, error) {
	b, err := json.Marshal(g)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// ArtifactMeta keys an artifact: which model and which compilation options
// it was built for.
type ArtifactMeta struct {
	ModelHash [32]byte
	Options   [32]byte
}

// ArtifactFile is a decoded artifact, ready to be instantiated against a
// model graph.
type ArtifactFile struct {
	Meta     ArtifactMeta
	Backend  pcs.Backend
	Config   gadgets.Config
	Cost     float64
	VKDigest [32]byte
	// FixedCommits / SigmaCommits are the verifying key's commitments: one
	// per fixed column (the circuit's, then q_active, l_0, l_u) and one per
	// permutation column's sigma.
	FixedCommits []curve.Affine
	SigmaCommits []curve.Affine
	SRS          []curve.Affine
}

// EncodeArtifact serializes a compiled plan and its keys.
func EncodeArtifact(meta ArtifactMeta, p *Plan, keys *Keys) ([]byte, error) {
	if keys == nil || keys.PK == nil || keys.VK == nil {
		return nil, fmt.Errorf("core: encoding an artifact requires full keys")
	}
	srs, err := pcs.SRSPoints(p.Backend, p.N)
	if err != nil {
		return nil, err
	}
	af := &ArtifactFile{Meta: meta, Backend: p.Backend, Config: p.Config, Cost: p.Cost,
		VKDigest: [32]byte(keys.VK.Digest()), FixedCommits: keys.VK.FixedCommits,
		SigmaCommits: keys.VK.SigmaCommits, SRS: srs}
	return af.encode(), nil
}

func (af *ArtifactFile) encode() []byte {
	cfg := af.Config
	var w wire.Writer
	w.Raw(artifactMagic[:])
	w.Raw(af.Meta.ModelHash[:])
	w.Raw(af.Meta.Options[:])
	w.Byte(byte(af.Backend))
	for _, s := range []string{string(cfg.Dot), string(cfg.Arith), string(cfg.ReLU)} {
		w.Str(s)
	}
	for _, v := range []int{cfg.NumCols, cfg.FP.ScaleBits, cfg.FP.LookupBits} {
		w.U32(v)
	}
	for _, b := range []bool{cfg.UseConstDot, cfg.MultiAdd, cfg.MultiMax, cfg.MultiDot} {
		w.Bool(b)
	}
	w.U64(math.Float64bits(af.Cost))
	w.Raw(af.VKDigest[:])
	for _, pts := range [][]curve.Affine{af.FixedCommits, af.SigmaCommits, af.SRS} {
		w.Points(pts)
	}
	return w.Bytes()
}

// DecodeArtifact parses artifact bytes. The input is untrusted; failures
// wrap zkerrors.ErrMalformedArtifact and arbitrary bytes never panic or
// allocate more than a constant multiple of len(data).
func DecodeArtifact(data []byte) (*ArtifactFile, error) {
	r := wire.NewReader(data, zkerrors.ErrMalformedArtifact)
	if !bytes.Equal(r.Next(len(artifactMagic), "magic"), artifactMagic[:]) {
		r.Fail("bad artifact magic")
	}
	af := &ArtifactFile{}
	copy(af.Meta.ModelHash[:], r.Next(32, "model hash"))
	copy(af.Meta.Options[:], r.Next(32, "options fingerprint"))
	af.Backend = pcs.Backend(r.Byte("backend"))
	cfg := &af.Config
	cfg.Dot = gadgets.DotStrategy(r.Str("dot strategy"))
	cfg.Arith = gadgets.ArithStrategy(r.Str("arith strategy"))
	cfg.ReLU = gadgets.ReLUStrategy(r.Str("ReLU strategy"))
	cfg.NumCols, cfg.FP.ScaleBits, cfg.FP.LookupBits = r.Int("column count"), r.Int("scale bits"), r.Int("lookup bits")
	cfg.UseConstDot, cfg.MultiAdd = r.Bool("UseConstDot"), r.Bool("MultiAdd")
	cfg.MultiMax, cfg.MultiDot = r.Bool("MultiMax"), r.Bool("MultiDot")
	af.Cost = math.Float64frombits(r.U64("cost"))
	copy(af.VKDigest[:], r.Next(32, "VK digest"))
	af.FixedCommits = r.Points("fixed commitment")
	af.SigmaCommits = r.Points("sigma commitment")
	af.SRS = r.Points("SRS point")
	if err := r.Close(); err != nil {
		return nil, err
	}
	switch {
	case af.Backend != pcs.KZG && af.Backend != pcs.IPA:
		return nil, errArtifact("unknown backend %d", af.Backend)
	case math.IsNaN(af.Cost) || math.IsInf(af.Cost, 0) || af.Cost < 0:
		return nil, errArtifact("invalid stored cost")
	}
	if err := cfg.Validate(); err != nil {
		return nil, errArtifact("stored config invalid: %v", err)
	}
	return af, nil
}

// rebuild re-synthesizes the circuit the artifact was compiled for, on the
// grid Optimize chose for it — the minimal one — and installs the stored SRS.
// The SRS must be exactly that grid's before the grid is allocated, so no
// stored number sizes the rebuild.
func (af *ArtifactFile) rebuild(g *model.Graph, sample *model.Input) (*gadgets.Artifact, error) {
	b, _, err := g.BuildCircuit(af.Config, sample)
	if err != nil {
		return nil, errArtifact("artifact config does not build against model %s: %v", g.Name, err)
	}
	n := b.MinN()
	want := n
	if af.Backend == pcs.IPA {
		want++ // the basis, then its anchor
	}
	if len(af.SRS) != want {
		return nil, errArtifact("SRS section holds %d points, a 2^%d-row %v circuit needs %d",
			len(af.SRS), bits.TrailingZeros(uint(n)), af.Backend, want)
	}
	art, err := b.Finalize(n)
	if err != nil {
		return nil, errArtifact("model %s does not finalize: %v", g.Name, err)
	}
	if err := pcs.InstallSRS(af.Backend, af.SRS); err != nil {
		return nil, errArtifact("%v", err)
	}
	return art, nil
}

// plan reconstructs the optimizer plan: the stored config and cost, and
// everything else from the rebuilt circuit, as Optimize derived it.
func (af *ArtifactFile) plan(g *model.Graph, sample *model.Input, art *gadgets.Artifact) *Plan {
	cand := candidateOf(art.CS, art.N, art.UsedRows, af.Config, af.Backend)
	cand.Cost = af.Cost
	return &Plan{Graph: g, Sample: sample, Candidate: cand, Backend: af.Backend}
}

// verifier rebuilds the circuit and its verifying key from the stored
// commitments, and checks the key against the digest stored at save time,
// which binds the commitments to the exact circuit. It interpolates nothing
// and runs no MSM, so a tampered artifact is rejected before any key column
// is touched.
func (af *ArtifactFile) verifier(g *model.Graph, sample *model.Input) (*gadgets.Artifact, *plonkish.VerifyingKey, error) {
	art, err := af.rebuild(g, sample)
	if err != nil {
		return nil, nil, err
	}
	vk, err := plonkish.SetupVK(art.CS, art.N, af.Backend, af.FixedCommits, af.SigmaCommits)
	if err != nil {
		return nil, nil, err
	}
	if !bytes.Equal(vk.Digest(), af.VKDigest[:]) {
		return nil, nil, errArtifact("verifying-key digest mismatch: artifact does not match this model")
	}
	return art, vk, nil
}

// Instantiate rebuilds a full proving system from the artifact: the
// verifying key as InstantiateVerifier builds it, completed into a proving
// key from the re-synthesized fixed values (one IFFT per column) — no
// optimizer sweep, no keygen MSMs, no SRS extension.
func (af *ArtifactFile) Instantiate(g *model.Graph, sample *model.Input) (*Plan, *Keys, error) {
	art, vk, err := af.verifier(g, sample)
	if err != nil {
		return nil, nil, err
	}
	pk, err := vk.ProvingKey(art.Fixed)
	if err != nil {
		return nil, nil, err
	}
	return af.plan(g, sample, art), &Keys{PK: pk, VK: vk}, nil
}

// InstantiateVerifier rebuilds a verification-only system: the circuit is
// re-synthesized and the verifying key takes the stored commitments (Keys.PK
// is nil). The path performs no interpolation or MSM work at all.
func (af *ArtifactFile) InstantiateVerifier(g *model.Graph, sample *model.Input) (*Plan, *Keys, error) {
	art, vk, err := af.verifier(g, sample)
	if err != nil {
		return nil, nil, err
	}
	return af.plan(g, sample, art), &Keys{VK: vk}, nil
}
