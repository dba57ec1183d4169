package zkml

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/obs"
	"repro/internal/pcs"
	"repro/internal/poly"
)

// ctrReader is a deterministic SHA-256 counter stream standing in for
// crypto/rand, so two proving runs draw identical blinding values and their
// proofs compare byte for byte.
type ctrReader struct {
	seed [32]byte
	ctr  uint64
	buf  []byte
}

func (c *ctrReader) Read(p []byte) (int, error) {
	for len(c.buf) < len(p) {
		h := sha256.New()
		h.Write(c.seed[:])
		var n [8]byte
		for i := 0; i < 8; i++ {
			n[i] = byte(c.ctr >> (8 * i))
		}
		h.Write(n[:])
		c.ctr++
		c.buf = h.Sum(c.buf)
	}
	n := copy(p, c.buf)
	c.buf = c.buf[n:]
	return n, nil
}

func exportedProof(t *testing.T, sys *System, in *Input) []byte {
	t.Helper()
	ff.SetRandomSource(&ctrReader{seed: sha256.Sum256([]byte("store-test"))})
	defer ff.SetRandomSource(nil)
	proof, err := sys.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.ExportProof(proof)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSaveLoadRoundTrip(t *testing.T) {
	for _, backend := range []Backend{KZG, IPA} {
		o := opts()
		o.Backend = backend
		spec, err := Model("dlrm-micro")
		if err != nil {
			t.Fatal(err)
		}
		g, sample := spec.Build(), spec.Input(1)
		sys, err := Compile(g, sample, o)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		path, err := sys.Save(dir)
		if err != nil {
			t.Fatalf("%v save: %v", backend, err)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatal(err)
		}

		// A cold load from the store must do zero keygen work: no MSMs, no
		// SRS extension, no comb-table builds, no IPA basis derivation.
		var counters obs.KernelCounters
		prevTrace := curve.SetKernelTrace(&counters)
		before := pcs.SetupWorkSnapshot()
		loaded, err := LoadSystem(dir, spec.Build(), spec.Input(1), o)
		setup := pcs.SetupWorkSnapshot().Sub(before)
		curve.SetKernelTrace(prevTrace)
		if err != nil {
			t.Fatalf("%v load: %v", backend, err)
		}
		var msms int64
		for i := range counters.MSM {
			msms += counters.MSM[i].Load()
		}
		if msms != 0 {
			t.Fatalf("%v LoadSystem performed %d MSMs, want 0", backend, msms)
		}
		if !setup.IsZero() {
			t.Fatalf("%v LoadSystem did SRS setup work: %+v", backend, setup)
		}

		// The loaded system is the compiled system: same model commitment,
		// byte-identical proofs (under pinned blinding randomness), and each
		// side verifies the other's proofs.
		if !bytes.Equal(sys.ModelCommitment(), loaded.ModelCommitment()) {
			t.Fatalf("%v model commitment changed across save/load", backend)
		}
		in := spec.Input(7)
		fresh, warm := exportedProof(t, sys, in), exportedProof(t, loaded, in)
		if !bytes.Equal(fresh, warm) {
			t.Fatalf("%v proofs differ between compiled and loaded systems", backend)
		}
		p, err := loaded.ImportProof(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if err := loaded.Verify(p); err != nil {
			t.Fatalf("%v loaded system rejected compiled system's proof: %v", backend, err)
		}

		// Verifier-only load: verifies proofs, cannot prove, does zero
		// MSM/interpolation work by construction.
		var vcounters obs.KernelCounters
		prevCurve, prevPoly := curve.SetKernelTrace(&vcounters), poly.SetKernelTrace(&vcounters)
		verifier, err := LoadVerifier(dir, spec.Build(), spec.Input(1), o)
		curve.SetKernelTrace(prevCurve)
		poly.SetKernelTrace(prevPoly)
		if err != nil {
			t.Fatalf("%v LoadVerifier: %v", backend, err)
		}
		for i := range vcounters.MSM {
			if vcounters.MSM[i].Load() != 0 || vcounters.FFT[i].Load() != 0 {
				t.Fatalf("%v LoadVerifier ran MSMs or FFTs of size 2^%d", backend, i)
			}
		}
		if err := verifier.Verify(p); err != nil {
			t.Fatalf("%v verifier-only system rejected a valid proof: %v", backend, err)
		}
		if _, err := verifier.Prove(in); err == nil {
			t.Fatalf("%v verifier-only system agreed to prove", backend)
		}
		// Re-saving from a loaded system lands on the same path.
		path2, err := loaded.Save(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if gotBase, wantBase := baseName(path2), baseName(path); gotBase != wantBase {
			t.Fatalf("%v re-save filename %q != %q", backend, gotBase, wantBase)
		}
	}
}

func baseName(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}

func TestLoadRejectsWrongArtifact(t *testing.T) {
	spec, err := Model("dlrm-micro")
	if err != nil {
		t.Fatal(err)
	}
	o := opts()
	sys, err := Compile(spec.Build(), spec.Input(1), o)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path, err := sys.Save(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Missing artifact (different options → different fingerprint → file
	// does not exist): callers detect this with os.ErrNotExist and fall
	// back to Compile.
	other := o
	other.ScaleBits, other.LookupBits = 7, 12
	if _, err := LoadSystem(dir, spec.Build(), spec.Input(1), other); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing artifact: got %v, want os.ErrNotExist", err)
	}

	// An artifact renamed onto another option set's path fails the
	// fingerprint check rather than silently loading the wrong keys.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	otherPath, err := ArtifactPath(dir, spec.Build(), other)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(otherPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSystem(dir, spec.Build(), spec.Input(1), other); !errors.Is(err, ErrMalformedArtifact) {
		t.Fatalf("wrong-options artifact: got %v, want ErrMalformedArtifact", err)
	}

	// Corrupted bytes are rejected through the artifact taxonomy: a stored
	// commitment (off the curve, or a different point the VK digest
	// catches), the last SRS power (checked against the ceremony), and the
	// format version.
	commit := sys.Keys.VK.FixedCommits[0].Bytes()
	at := bytes.Index(data, commit[:])
	if at < 0 {
		t.Fatal("stored artifact does not carry the first fixed commitment")
	}
	for name, off := range map[string]int{"commitment": at + 31, "last SRS power": len(data) - 1, "version": 7} {
		corrupt := append([]byte(nil), data...)
		corrupt[off] ^= 0x01
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		for loader, load := range map[string]func(string, *Graph, *Input, Options) (*System, error){"LoadSystem": LoadSystem, "LoadVerifier": LoadVerifier} {
			if _, err := load(dir, spec.Build(), spec.Input(1), o); !errors.Is(err, ErrMalformedArtifact) {
				t.Fatalf("%s with a corrupted %s: got %v, want ErrMalformedArtifact", loader, name, err)
			}
		}
	}
}

// TestOldFormatStoreMisses: a store written before the artifact format
// version moved into the file name holds the model's artifact under the
// unversioned name. It is a miss, never a permanent decode error:
// LoadOrCompile recompiles, fills the versioned name, and then hits.
func TestOldFormatStoreMisses(t *testing.T) {
	spec, err := Model("dlrm-micro")
	if err != nil {
		t.Fatal(err)
	}
	g, sample, o := spec.Build(), spec.Input(1), opts()
	path, err := ArtifactPath(t.TempDir(), g, o)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Dir(path)
	if !strings.HasSuffix(path, "-v2.zka") {
		t.Fatalf("artifact path %q does not carry the format version", path)
	}
	oldPath := strings.TrimSuffix(path, "-v2.zka") + ".zka"
	old := append([]byte("ZKMLART\x01"), make([]byte, 64)...)
	if err := os.WriteFile(oldPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSystem(dir, g, sample, o); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("old-format store: got %v, want os.ErrNotExist", err)
	}
	if _, fromStore, err := LoadOrCompile(dir, g, sample, 1, o); err != nil || fromStore {
		t.Fatalf("LoadOrCompile over an old-format store: fromStore=%v err=%v", fromStore, err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("LoadOrCompile did not refill the store: %v", err)
	}
	if _, fromStore, err := LoadOrCompile(dir, g, sample, 1, o); err != nil || !fromStore {
		t.Fatalf("LoadOrCompile over the refilled store: fromStore=%v err=%v", fromStore, err)
	}
}

func TestOptionsValidation(t *testing.T) {
	spec, err := Model("dlrm-micro")
	if err != nil {
		t.Fatal(err)
	}
	g, sample := spec.Build(), spec.Input(1)
	cases := map[string]Options{
		"MinCols > MaxCols":       {MinCols: 16, MaxCols: 8},
		"negative ScaleBits":      {ScaleBits: -3},
		"ScaleBits too large":     {ScaleBits: 30},
		"LookupBits <= ScaleBits": {ScaleBits: 8, LookupBits: 8},
		"negative MinCols":        {MinCols: -2, MaxCols: 8},
		"unknown backend":         {Backend: Backend(42)},
		"unknown objective":       {Objective: Objective("min-vibes")},
		"negative LookupBits":     {ScaleBits: 6, LookupBits: -1},
		"LookupBits out of range": {ScaleBits: 6, LookupBits: 27},
	}
	for name, o := range cases {
		if _, _, _, err := Optimize(g, sample, o); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("Optimize %s: got %v, want ErrInvalidOptions", name, err)
		}
		if _, err := Compile(g, sample, o); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("Compile %s: got %v, want ErrInvalidOptions", name, err)
		}
	}
	// Defaults remain valid.
	if err := (Options{}).validate(); err != nil {
		t.Fatalf("zero options: %v", err)
	}
}
