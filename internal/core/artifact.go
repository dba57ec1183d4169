package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/fixedpoint"
	"repro/internal/gadgets"
	"repro/internal/model"
	"repro/internal/pcs"
	"repro/internal/plonkish"
	"repro/internal/zkerrors"
)

// Artifact file format (DESIGN.md §13): a compiled plan plus everything
// expensive about its keys, persisted so cold start is a deserialize
// instead of an optimizer sweep + keygen + SRS extension. One file holds
//
//	magic "ZKMLART" + ArtifactVersion, then
//	meta:     model hash (32 B) + options fingerprint (32 B)
//	plan:     backend, gadget config, K/N/UsedRows, estimated cost/size
//	digest:   the verifying-key digest the reconstructed keys must match
//	keys:     plonkish.KeyMaterial (fixed/sigma commitments)
//	srs:      the commitment-scheme setup (pcs.ExportSRS)
//
// The graph, sample input, key polynomials and KZG comb are NOT stored —
// the loader re-synthesizes and re-interpolates the circuit from the model
// it already has, and the digest check rejects commitments that do not
// match it. Artifact bytes are untrusted: every length prefix is capped by
// the bytes remaining, nested sections go through their own hardened
// decoders, and all structural failures wrap zkerrors.ErrMalformedArtifact.

// ArtifactVersion is the format version in the magic. The store carries it
// in the file name too, so an artifact of another version is a miss.
const ArtifactVersion = 2

var artifactMagic = [8]byte{'Z', 'K', 'M', 'L', 'A', 'R', 'T', ArtifactVersion}

// maxConfigStr caps decoded gadget-strategy string lengths.
const maxConfigStr = 64

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
	K        int
	N        int
	UsedRows int
	Cost     float64
	Size     int
	VKDigest [32]byte
	Material *plonkish.KeyMaterial
	SRS      []byte
}

// EncodeArtifact serializes a compiled plan and its keys.
func EncodeArtifact(meta ArtifactMeta, p *Plan, keys *Keys) ([]byte, error) {
	if keys == nil || keys.PK == nil || keys.VK == nil {
		return nil, fmt.Errorf("core: encoding an artifact requires full keys")
	}
	material, err := keys.PK.Material().MarshalBinary()
	if err != nil {
		return nil, err
	}
	srs, err := pcs.ExportSRS(p.Backend, p.N)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Write(artifactMagic[:])
	buf.Write(meta.ModelHash[:])
	buf.Write(meta.Options[:])
	buf.WriteByte(byte(p.Backend))
	writeStr := func(s string) {
		buf.WriteByte(byte(len(s)))
		buf.WriteString(s)
	}
	writeBool := func(b bool) {
		if b {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
	}
	writeU32 := func(v int) {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(v))
		buf.Write(b[:])
	}
	cfg := p.Config
	for _, s := range []string{string(cfg.Dot), string(cfg.Arith), string(cfg.ReLU), string(cfg.Rows)} {
		if len(s) > maxConfigStr {
			return nil, fmt.Errorf("core: config string %q too long", s)
		}
		writeStr(s)
	}
	writeU32(cfg.NumCols)
	writeU32(cfg.FP.ScaleBits)
	writeU32(cfg.FP.LookupBits)
	writeBool(cfg.UseConstDot)
	writeBool(cfg.MultiAdd)
	writeBool(cfg.MultiMax)
	writeBool(cfg.MultiDot)
	writeU32(p.K)
	writeU32(p.N)
	writeU32(p.UsedRows)
	var costBits [8]byte
	binary.BigEndian.PutUint64(costBits[:], math.Float64bits(p.Cost))
	buf.Write(costBits[:])
	writeU32(p.Size)
	digest := keys.VK.Digest()
	if len(digest) != 32 {
		return nil, fmt.Errorf("core: unexpected VK digest length %d", len(digest))
	}
	buf.Write(digest)
	writeU32(len(material))
	buf.Write(material)
	writeU32(len(srs))
	buf.Write(srs)
	return buf.Bytes(), nil
}

// DecodeArtifact parses artifact bytes. The input is untrusted; failures
// wrap zkerrors.ErrMalformedArtifact and arbitrary bytes never panic or
// over-allocate. The nested key material is fully decoded (and its points
// validated); the SRS section is kept as raw bytes for pcs.ImportSRS at
// instantiation time.
func DecodeArtifact(data []byte) (*ArtifactFile, error) {
	r := bytes.NewReader(data)
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil || magic != artifactMagic {
		return nil, errArtifact("bad artifact magic")
	}
	af := &ArtifactFile{}
	if _, err := io.ReadFull(r, af.Meta.ModelHash[:]); err != nil {
		return nil, errArtifact("truncated model hash")
	}
	if _, err := io.ReadFull(r, af.Meta.Options[:]); err != nil {
		return nil, errArtifact("truncated options fingerprint")
	}
	bb, err := r.ReadByte()
	if err != nil {
		return nil, errArtifact("truncated backend")
	}
	af.Backend = pcs.Backend(bb)
	if af.Backend != pcs.KZG && af.Backend != pcs.IPA {
		return nil, errArtifact("unknown backend %d", bb)
	}
	readStr := func() (string, error) {
		l, err := r.ReadByte()
		if err != nil {
			return "", errArtifact("truncated config string")
		}
		if int(l) > maxConfigStr || int(l) > r.Len() {
			return "", errArtifact("config string length %d out of range", l)
		}
		b := make([]byte, l)
		if _, err := io.ReadFull(r, b); err != nil {
			return "", errArtifact("truncated config string")
		}
		return string(b), nil
	}
	readBool := func() (bool, error) {
		b, err := r.ReadByte()
		if err != nil || b > 1 {
			return false, errArtifact("bad boolean encoding")
		}
		return b == 1, nil
	}
	readU32 := func() (int, error) {
		var b [4]byte
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return 0, errArtifact("truncated integer")
		}
		return int(binary.BigEndian.Uint32(b[:])), nil
	}
	var cfg gadgets.Config
	var dot, arith, relu, rows string
	for _, dst := range []*string{&dot, &arith, &relu, &rows} {
		if *dst, err = readStr(); err != nil {
			return nil, err
		}
	}
	cfg.Dot = gadgets.DotStrategy(dot)
	cfg.Arith = gadgets.ArithStrategy(arith)
	cfg.ReLU = gadgets.ReLUStrategy(relu)
	cfg.Rows = gadgets.RowMode(rows)
	if cfg.NumCols, err = readU32(); err != nil {
		return nil, err
	}
	var fp fixedpoint.Params
	if fp.ScaleBits, err = readU32(); err != nil {
		return nil, err
	}
	if fp.LookupBits, err = readU32(); err != nil {
		return nil, err
	}
	cfg.FP = fp
	for _, dst := range []*bool{&cfg.UseConstDot, &cfg.MultiAdd, &cfg.MultiMax, &cfg.MultiDot} {
		if *dst, err = readBool(); err != nil {
			return nil, err
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, errArtifact("stored config invalid: %v", err)
	}
	af.Config = cfg
	if af.K, err = readU32(); err != nil {
		return nil, err
	}
	if af.N, err = readU32(); err != nil {
		return nil, err
	}
	if af.UsedRows, err = readU32(); err != nil {
		return nil, err
	}
	if af.K < 1 || af.K > 40 || af.N != 1<<uint(af.K) {
		return nil, errArtifact("inconsistent grid size K=%d N=%d", af.K, af.N)
	}
	var costBits [8]byte
	if _, err := io.ReadFull(r, costBits[:]); err != nil {
		return nil, errArtifact("truncated cost")
	}
	af.Cost = math.Float64frombits(binary.BigEndian.Uint64(costBits[:]))
	if math.IsNaN(af.Cost) || math.IsInf(af.Cost, 0) || af.Cost < 0 {
		return nil, errArtifact("invalid stored cost")
	}
	if af.Size, err = readU32(); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(r, af.VKDigest[:]); err != nil {
		return nil, errArtifact("truncated VK digest")
	}
	readSection := func(name string) ([]byte, error) {
		l, err := readU32()
		if err != nil {
			return nil, err
		}
		if l > r.Len() {
			return nil, errArtifact("%s section claims %d bytes with %d left", name, l, r.Len())
		}
		b := make([]byte, l)
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, errArtifact("truncated %s section", name)
		}
		return b, nil
	}
	materialBytes, err := readSection("key-material")
	if err != nil {
		return nil, err
	}
	af.Material = &plonkish.KeyMaterial{}
	if err := af.Material.UnmarshalBinary(materialBytes); err != nil {
		return nil, err
	}
	if af.SRS, err = readSection("srs"); err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, errArtifact("%d trailing artifact bytes", r.Len())
	}
	return af, nil
}

// rebuild re-synthesizes the circuit the artifact was compiled for and
// imports its SRS, returning the finalized build artifact.
func (af *ArtifactFile) rebuild(g *model.Graph, sample *model.Input) (*gadgets.Artifact, error) {
	b, _, err := g.BuildCircuit(af.Config, sample)
	if err != nil {
		return nil, errArtifact("artifact config does not build against model %s: %v", g.Name, err)
	}
	art, err := b.Finalize(af.N)
	if err != nil {
		return nil, errArtifact("artifact grid 2^%d does not fit model %s: %v", af.K, g.Name, err)
	}
	backend, _, err := pcs.ImportSRS(af.SRS)
	if err != nil {
		return nil, err
	}
	if backend != af.Backend {
		return nil, errArtifact("SRS backend %v does not match artifact backend %v", backend, af.Backend)
	}
	return art, nil
}

// plan reconstructs the optimizer plan the artifact stores.
func (af *ArtifactFile) plan(g *model.Graph, sample *model.Input, cs *plonkish.CS) *Plan {
	return &Plan{
		Graph:  g,
		Sample: sample,
		Candidate: Candidate{
			Config:   af.Config,
			N:        af.N,
			K:        af.K,
			UsedRows: af.UsedRows,
			Layout:   LayoutOf(cs, af.K, af.Backend),
			Cost:     af.Cost,
			Size:     af.Size,
		},
		Backend: af.Backend,
	}
}

// checkDigest verifies the reconstructed verifying key against the digest
// stored at save time, binding the material to the exact circuit.
func (af *ArtifactFile) checkDigest(vk *plonkish.VerifyingKey) error {
	if !bytes.Equal(vk.Digest(), af.VKDigest[:]) {
		return errArtifact("verifying-key digest mismatch: artifact does not match this model")
	}
	return nil
}

// Instantiate rebuilds a full proving system from the artifact: the circuit
// and fixed values are re-synthesized from the model and interpolated
// (cheap), the SRS is imported, and the keys take the stored commitments —
// no optimizer sweep, no keygen MSMs, no SRS extension.
func (af *ArtifactFile) Instantiate(g *model.Graph, sample *model.Input) (*Plan, *Keys, error) {
	art, err := af.rebuild(g, sample)
	if err != nil {
		return nil, nil, err
	}
	pk, vk, err := plonkish.SetupFromMaterial(art.CS, af.N, art.Fixed, af.Backend, af.Material)
	if err != nil {
		return nil, nil, err
	}
	if err := af.checkDigest(vk); err != nil {
		return nil, nil, err
	}
	return af.plan(g, sample, art.CS), &Keys{PK: pk, VK: vk}, nil
}

// InstantiateVerifier rebuilds a verification-only system: same circuit
// re-synthesis, but the keys carry only the verifying side (Keys.PK is nil)
// and the path performs no interpolation or MSM work at all.
func (af *ArtifactFile) InstantiateVerifier(g *model.Graph, sample *model.Input) (*Plan, *Keys, error) {
	art, err := af.rebuild(g, sample)
	if err != nil {
		return nil, nil, err
	}
	vk, err := plonkish.SetupVK(art.CS, af.N, af.Backend, af.Material)
	if err != nil {
		return nil, nil, err
	}
	if err := af.checkDigest(vk); err != nil {
		return nil, nil, err
	}
	return af.plan(g, sample, art.CS), &Keys{VK: vk}, nil
}
