package zkml

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/zkerrors"
)

// ErrMalformedArtifact: persisted key/plan artifact bytes are structurally
// invalid (truncated, corrupted, or built for a different model/options).
var ErrMalformedArtifact = zkerrors.ErrMalformedArtifact

// optionsFingerprint digests every option that changes the compiled circuit
// or its keys. Options that only affect how compilation runs (calibration
// source) are deliberately excluded: two compiles with different
// calibrations may pick different layouts, but a stored artifact pins the
// layout anyway, and reusing it across calibration sources is exactly the
// point of the store.
func optionsFingerprint(o Options) [32]byte {
	o = o.withDefaults()
	s := fmt.Sprintf("zkml-options/v1|backend=%s|objective=%s|scale=%d|lookup=%d|cols=%d..%d",
		o.Backend, o.Objective, o.ScaleBits, o.LookupBits, o.MinCols, o.MaxCols)
	return sha256.Sum256([]byte(s))
}

// sanitizeName maps a model name onto a filesystem-safe slug.
func sanitizeName(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r + ('a' - 'A'))
		default:
			b.WriteRune('-')
		}
	}
	if b.Len() == 0 {
		return "model"
	}
	return b.String()
}

// ArtifactPath returns the file a compiled system for (model, options) is
// stored at inside dir. The name embeds the model hash, the options
// fingerprint and the artifact format version, so different models, option
// sets or formats never collide: a store written in an older format misses
// and is recompiled instead of failing to decode under the same name.
func ArtifactPath(dir string, g *Graph, o Options) (string, error) {
	h, err := core.ModelHash(g)
	if err != nil {
		return "", err
	}
	fp := optionsFingerprint(o)
	name := fmt.Sprintf("%s-%x-%x-v%d.zka", sanitizeName(g.Name), h[:4], fp[:4], core.ArtifactVersion)
	return filepath.Join(dir, name), nil
}

// Save persists the compiled system — plan, proving-key material, verifying
// key, and the commitment-scheme SRS — into dir, returning the file path.
// The write is atomic (temp file + rename), so a crash never leaves a
// half-written artifact behind. Load the result with LoadSystem (prove +
// verify) or LoadVerifier (verify only, no proving-key reconstruction).
func (s *System) Save(dir string) (string, error) {
	h, err := core.ModelHash(s.Plan.Graph)
	if err != nil {
		return "", err
	}
	meta := core.ArtifactMeta{ModelHash: h, Options: optionsFingerprint(s.opts)}
	data, err := core.EncodeArtifact(meta, s.Plan, s.Keys)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path, err := ArtifactPath(dir, s.Plan.Graph, s.opts)
	if err != nil {
		return "", err
	}
	if err := fsio.WriteFileAtomic(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// loadArtifact reads and decodes the artifact for (model, options) from dir
// and checks it was built for exactly that pair.
func loadArtifact(dir string, g *Graph, o Options) (*core.ArtifactFile, error) {
	path, err := ArtifactPath(dir, g, o)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("zkml: no stored artifact for model %q with these options: %w", g.Name, err)
	}
	af, err := core.DecodeArtifact(data)
	if err != nil {
		return nil, err
	}
	h, err := core.ModelHash(g)
	if err != nil {
		return nil, err
	}
	if af.Meta.ModelHash != h {
		return nil, fmt.Errorf("zkml: artifact %s was built for a different model: %w", path, ErrMalformedArtifact)
	}
	if af.Meta.Options != optionsFingerprint(o) {
		return nil, fmt.Errorf("zkml: artifact %s was built with different options: %w", path, ErrMalformedArtifact)
	}
	// Loading re-synthesizes the circuit under the stored config before any
	// integrity check can run, so only a config the optimizer could have
	// chosen under o is let through: a corrupt column count or numeric format
	// would otherwise size the rebuild without bound.
	if !o.coreOptions().Admits(af.Config) {
		return nil, fmt.Errorf("zkml: artifact %s stores a gadget config these options cannot produce: %w", path, ErrMalformedArtifact)
	}
	return af, nil
}

// LoadSystem reconstructs a compiled system from an artifact saved in dir.
// The circuit and fixed columns are re-synthesized and interpolated from the
// model (cheap and deterministic); the artifact supplies the commitments, so
// the load performs no layout search, no keygen MSMs, and no SRS extension.
// The options must match the ones the system was compiled with; the
// calibration they resolve to prices the loaded plan, so CompareEstimate
// works as on a compiled system. If no matching artifact exists the error
// wraps os.ErrNotExist — callers fall back to Compile.
func LoadSystem(dir string, g *Graph, sample *Input, o Options) (*System, error) {
	return load(dir, g, sample, o, (*core.ArtifactFile).Instantiate)
}

// LoadVerifier reconstructs a verification-only system from an artifact
// saved in dir: the verifying key is assembled straight from the stored
// commitments with no interpolation and no MSM work at all. The result
// verifies proofs and exposes the model commitment; Prove returns an error.
func LoadVerifier(dir string, g *Graph, sample *Input, o Options) (*System, error) {
	return load(dir, g, sample, o, (*core.ArtifactFile).InstantiateVerifier)
}

// load reads the artifact matching g and o from dir and instantiates it.
func load(dir string, g *Graph, sample *Input, o Options,
	instantiate func(*core.ArtifactFile, *Graph, *Input) (*core.Plan, *core.Keys, error)) (*System, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	af, err := loadArtifact(dir, g, o)
	if err != nil {
		return nil, err
	}
	plan, keys, err := instantiate(af, g, sample)
	if err != nil {
		return nil, err
	}
	plan.Calibration = o.calibration()
	return &System{Plan: plan, Keys: keys, opts: o}, nil
}
