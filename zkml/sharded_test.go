package zkml

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ff"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/pcs"
)

// TestOutputsZeroInstance: Outputs on a nil proof or a proof with no
// instance columns must return nil, not panic (the pre-fix code indexed
// p.Instance[0] unconditionally).
func TestOutputsZeroInstance(t *testing.T) {
	var s System
	if got := s.Outputs(nil); got != nil {
		t.Fatalf("Outputs(nil) = %v, want nil", got)
	}
	if got := s.Outputs(&Proof{}); got != nil {
		t.Fatalf("Outputs(no instance) = %v, want nil", got)
	}
}

// TestImportProofNonCanonicalScalar: a 32-byte instance value that is not
// the canonical reduced encoding (>= the field modulus) must be rejected
// as malformed, not silently reduced — a reduced alias would verify under
// a different public claim than the bytes on the wire.
func TestImportProofNonCanonicalScalar(t *testing.T) {
	spec, _ := Model("dlrm-micro")
	sys, err := Compile(spec.Build(), spec.Input(1), opts())
	if err != nil {
		t.Fatal(err)
	}
	proof, err := sys.Prove(spec.Input(3))
	if err != nil {
		t.Fatal(err)
	}
	data, err := sys.ExportProof(proof)
	if err != nil {
		t.Fatal(err)
	}
	// Layout: 1-byte column count, then per column a 4-byte length and the
	// 32-byte scalars. The first scalar starts at offset 5.
	var modBytes [32]byte
	ff.Modulus().FillBytes(modBytes[:])
	for _, bad := range [][32]byte{
		modBytes,
		{0: 0xFF, 31: 0xFF}, // way above the modulus
	} {
		mut := append([]byte(nil), data...)
		copy(mut[5:37], bad[:])
		_, err := sys.ImportProof(mut)
		if !errors.Is(err, ErrMalformedProof) {
			t.Fatalf("non-canonical scalar: want ErrMalformedProof, got %v", err)
		}
	}
	// The canonical encoding still round-trips.
	if _, err := sys.ImportProof(data); err != nil {
		t.Fatal(err)
	}
}

// TestExportMutationSweepInstancePrefix extends the plonkish proof-body
// mutation sweep to the zkml transport framing: flipping any byte of the
// instance prefix (and the first stretch of the proof body behind it)
// must yield a decode error or a failed verification, never an accept or
// a panic. The proof body's own tail is covered by the plonkish sweep.
func TestExportMutationSweepInstancePrefix(t *testing.T) {
	spec, _ := Model("dlrm-micro")
	sys, err := Compile(spec.Build(), spec.Input(1), opts())
	if err != nil {
		t.Fatal(err)
	}
	proof, err := sys.Prove(spec.Input(3))
	if err != nil {
		t.Fatal(err)
	}
	data, err := sys.ExportProof(proof)
	if err != nil {
		t.Fatal(err)
	}
	prefix := 1
	for _, col := range proof.Instance {
		prefix += 4 + 32*len(col)
	}
	end := prefix + 64
	if end > len(data) {
		end = len(data)
	}
	check := func(off int) (accepted bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("byte %d: panic: %v", off, r)
			}
		}()
		mut := append([]byte(nil), data...)
		mut[off] ^= 0xFF
		p, err := sys.ImportProof(mut)
		if err != nil {
			return false
		}
		return sys.Verify(p) == nil
	}
	for off := 0; off < end; off++ {
		if check(off) {
			t.Errorf("mutant at byte %d of %d was ACCEPTED", off, len(data))
		}
	}
	t.Logf("all %d instance-prefix mutants rejected (prefix %d bytes)", end, prefix)
}

// shardedFixture is a sharded mnist compiled, keyed and proved once per
// (backend, shards); the tamper, determinism and store tests share it.
type shardedFixture struct {
	spec  model.Spec
	o     Options
	sys   *ShardedSystem
	proof *ShardedProof
}

var shardedFixtures = map[string]*shardedFixture{}

func newShardedFixture(t *testing.T, backend Backend, shards int) *shardedFixture {
	t.Helper()
	key := fmt.Sprintf("%v/%d", backend, shards)
	if fx, ok := shardedFixtures[key]; ok {
		return fx
	}
	spec, err := Model("mnist")
	if err != nil {
		t.Fatal(err)
	}
	o := opts()
	o.Backend = backend
	o.ScaleBits, o.LookupBits, o.MaxCols = 5, 9, 16
	sys, err := CompileSharded(spec.Build(), spec.Input(1), shards, o)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Shards() != shards {
		t.Fatalf("got %d chunks, want %d", sys.Shards(), shards)
	}
	proof, err := sys.Prove(spec.Input(42))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Verify(proof); err != nil {
		t.Fatal(err)
	}
	fx := &shardedFixture{spec: spec, o: o, sys: sys, proof: proof}
	shardedFixtures[key] = fx
	return fx
}

// cloneProof deep-copies a sharded proof's chunk slice and instance values
// so tamper tests never corrupt the shared fixture. Chunk proof bodies are
// shared (tests only swap or replace them whole).
func cloneProof(p *ShardedProof) *ShardedProof {
	out := &ShardedProof{Chunks: make([]*Proof, len(p.Chunks))}
	for i, pf := range p.Chunks {
		cp := &Proof{Proof: pf.Proof, Instance: make([][]ff.Element, len(pf.Instance))}
		for c, col := range pf.Instance {
			cp.Instance[c] = append([]ff.Element(nil), col...)
		}
		out.Chunks[i] = cp
	}
	return out
}

// seedRandom pins the process randomness source to a labelled SHA-256
// counter stream; the returned func restores crypto/rand.
func seedRandom(label string) func() {
	ff.SetRandomSource(&ctrReader{seed: sha256.Sum256([]byte(label))})
	return func() { ff.SetRandomSource(nil) }
}

// chunkBytes marshals every chunk proof body.
func chunkBytes(t *testing.T, p *ShardedProof) [][]byte {
	t.Helper()
	out := make([][]byte, len(p.Chunks))
	for c, pf := range p.Chunks {
		b, err := pf.Proof.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		out[c] = b
	}
	return out
}

func TestShardedProveVerifyMNIST(t *testing.T) {
	fx := newShardedFixture(t, KZG, 3)
	if !strings.Contains(fx.sys.Describe(), "mnist") {
		t.Fatal("describe missing model name")
	}
	if len(fx.sys.ModelCommitment()) != 32 {
		t.Fatal("model commitment not 32 bytes")
	}

	t.Run("outputs-match-single-circuit", func(t *testing.T) {
		single, err := Compile(fx.spec.Build(), fx.spec.Input(1), fx.o)
		if err != nil {
			t.Fatal(err)
		}
		p, err := single.Prove(fx.spec.Input(42))
		if err != nil {
			t.Fatal(err)
		}
		want, got := single.Outputs(p), fx.sys.Outputs(fx.proof)
		if len(got) == 0 || len(got) != len(want) {
			t.Fatalf("sharded outputs %d values, single-circuit %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("output %d differs between sharded (%v) and single-circuit (%v) proof", i, got[i], want[i])
			}
		}
	})

	t.Run("deterministic-across-worker-counts", func(t *testing.T) {
		// Per-chunk blinding seeds derive from sequential draws on the
		// process source, so under a fixed source the sharded proof is a
		// pure function of (keys, input) at any worker count.
		prev := parallel.Workers()
		defer parallel.SetWorkers(prev)
		var runs [][][]byte
		for _, workers := range []int{1, 4} {
			parallel.SetWorkers(workers)
			restore := seedRandom("sharded-determinism")
			p, err := fx.sys.Prove(fx.spec.Input(42))
			restore()
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, chunkBytes(t, p))
		}
		for c := range runs[0] {
			if !bytes.Equal(runs[0][c], runs[1][c]) {
				t.Fatalf("chunk %d proof bytes differ between 1 and 4 workers", c)
			}
		}
	})

	t.Run("tampered-boundary-rejected", func(t *testing.T) {
		// Flip one committed boundary element in the consumer chunk's
		// instance column: the chunk proof no longer matches its instance.
		w := fx.sys.Part.Wires[0]
		tampered := cloneProof(fx.proof)
		var one ff.Element
		one.SetUint64(1)
		cell := &tampered.Chunks[w.To].Instance[0][w.ToOff]
		cell.Add(cell, &one)
		if err := fx.sys.Verify(tampered); !errors.Is(err, ErrVerifyFailed) {
			t.Fatalf("tampered boundary: want ErrVerifyFailed, got %v", err)
		}
	})

	t.Run("spliced-chunk-rejected", func(t *testing.T) {
		// A proof whose chunks each verify but come from different
		// inferences must fail the boundary equality check.
		other, err := fx.sys.Prove(fx.spec.Input(7))
		if err != nil {
			t.Fatal(err)
		}
		spliced := cloneProof(fx.proof)
		spliced.Chunks[0] = other.Chunks[0]
		err = fx.sys.Verify(spliced)
		if !errors.Is(err, ErrVerifyFailed) {
			t.Fatalf("spliced chunk: want ErrVerifyFailed, got %v", err)
		}
		if !strings.Contains(err.Error(), "boundary activation") {
			t.Fatalf("splice not caught by the boundary check: %v", err)
		}
	})

	t.Run("swapped-chunks-rejected", func(t *testing.T) {
		swapped := cloneProof(fx.proof)
		swapped.Chunks[0], swapped.Chunks[1] = swapped.Chunks[1], swapped.Chunks[0]
		err := fx.sys.Verify(swapped)
		if !errors.Is(err, ErrVerifyFailed) && !errors.Is(err, ErrMalformedProof) {
			t.Fatalf("swapped chunk order: want a typed rejection, got %v", err)
		}
	})

	t.Run("wrong-chunk-count-malformed", func(t *testing.T) {
		short := &ShardedProof{Chunks: fx.proof.Chunks[:2]}
		if err := fx.sys.Verify(short); !errors.Is(err, ErrMalformedProof) {
			t.Fatalf("want ErrMalformedProof, got %v", err)
		}
		if err := fx.sys.Verify(nil); !errors.Is(err, ErrMalformedProof) {
			t.Fatalf("nil proof: want ErrMalformedProof, got %v", err)
		}
	})

	t.Run("audit-clean-per-chunk", func(t *testing.T) {
		reports, err := fx.sys.Audit()
		if err != nil {
			t.Fatal(err)
		}
		if len(reports) != fx.sys.Shards() {
			t.Fatalf("%d reports for %d chunks", len(reports), fx.sys.Shards())
		}
		for c, rep := range reports {
			if !rep.Clean() {
				t.Fatalf("chunk %d audit not clean: %s", c, rep.Summary())
			}
		}
	})

	t.Run("export-import-round-trip", func(t *testing.T) {
		data, err := fx.sys.ExportProof(fx.proof)
		if err != nil {
			t.Fatal(err)
		}
		back, err := fx.sys.ImportProof(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := fx.sys.Verify(back); err != nil {
			t.Fatalf("imported sharded proof rejected: %v", err)
		}
		// Truncation, trailing garbage, and a wrong chunk count are all
		// malformed transport, not verification failures.
		for name, mut := range map[string][]byte{
			"truncated":   data[:len(data)/2],
			"trailing":    append(append([]byte(nil), data...), 0x00),
			"wrong-count": append([]byte{1}, data[1:]...),
			"empty":       {},
		} {
			if _, err := fx.sys.ImportProof(mut); !errors.Is(err, ErrMalformedProof) {
				t.Fatalf("%s import: want ErrMalformedProof, got %v", name, err)
			}
		}
	})

	t.Run("trace-is-single-circuit-only", func(t *testing.T) {
		if _, _, err := fx.sys.ProveTraced(fx.spec.Input(42)); !errors.Is(err, ErrTraceSharded) {
			t.Fatalf("traced sharded prove: want ErrTraceSharded, got %v", err)
		}
	})
}

func TestShardedBothBackends(t *testing.T) {
	for _, backend := range []Backend{KZG, IPA} {
		fx := newShardedFixture(t, backend, 2)
		if got := len(fx.sys.Outputs(fx.proof)); got == 0 {
			t.Fatalf("%v: no final outputs", backend)
		}
	}
}

// TestShardedStore: a chain is stored as one ordinary .zka per chunk. The
// round trip reloads it with no set-up work and proves byte-identically; the
// corruption matrix — a chunk's file replayed at another position, a chunk
// missing, a store opened under another shard count — is rejected or missed,
// never accepted.
func TestShardedStore(t *testing.T) {
	fx := newShardedFixture(t, KZG, 2)
	g, sample := fx.spec.Build(), fx.spec.Input(1)
	dir := t.TempDir()
	paths, err := fx.sys.Save(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 || paths[0] == paths[1] {
		t.Fatalf("2-chunk save wrote %v", paths)
	}
	for _, p := range paths {
		if filepath.Ext(p) != ".zka" {
			t.Fatalf("chunk artifact %q is not a .zka", p)
		}
	}

	before := pcs.SetupWorkSnapshot()
	loaded, err := LoadShardedSystem(dir, g, sample, 2, fx.o)
	if err != nil {
		t.Fatal(err)
	}
	if d := pcs.SetupWorkSnapshot().Sub(before); !d.IsZero() {
		t.Fatalf("LoadShardedSystem did set-up work: %+v", d)
	}
	if err := loaded.Verify(fx.proof); err != nil {
		t.Fatalf("loaded system rejects original proof: %v", err)
	}
	if !bytes.Equal(loaded.ModelCommitment(), fx.sys.ModelCommitment()) {
		t.Fatal("model commitment changed across the store round trip")
	}
	// Under a fixed randomness source the reloaded chain proves
	// byte-identically to the in-memory one.
	var runs [][][]byte
	for _, sys := range []*ShardedSystem{fx.sys, loaded} {
		restore := seedRandom("sharded-artifact")
		p, err := sys.Prove(fx.spec.Input(42))
		restore()
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, chunkBytes(t, p))
	}
	for c := range runs[0] {
		if !bytes.Equal(runs[0][c], runs[1][c]) {
			t.Fatalf("chunk %d proof differs after the store round trip", c)
		}
	}

	ver, err := LoadShardedVerifier(dir, g, sample, 2, fx.o)
	if err != nil {
		t.Fatal(err)
	}
	for c, ch := range ver.Chunks {
		if ch.Keys.PK != nil {
			t.Fatalf("verifier chunk %d carries a proving key", c)
		}
	}
	if err := ver.Verify(fx.proof); err != nil {
		t.Fatalf("verifier-only system rejects proof: %v", err)
	}
	if _, err := ver.Prove(fx.spec.Input(5)); err == nil {
		t.Fatal("verifier-only system proved")
	}

	// The same store under another shard count (or unsharded) is a miss:
	// chunk graphs are named model#c/N, so no file name or model hash of
	// the 2-chunk chain matches.
	for _, n := range []int{1, 3} {
		if _, err := LoadShardedSystem(dir, g, sample, n, fx.o); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("2-shard store opened as %d shards: got %v, want os.ErrNotExist", n, err)
		}
	}

	// Chunk 0's artifact replayed at chunk 1's position fails the
	// model-hash check.
	chunk0, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	chunk1, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[1], chunk0, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, load := range map[string]func(string, *Graph, *Input, int, Options) (*ShardedSystem, error){
		"LoadShardedSystem": LoadShardedSystem, "LoadShardedVerifier": LoadShardedVerifier,
	} {
		if _, err := load(dir, g, sample, 2, fx.o); !errors.Is(err, ErrMalformedArtifact) {
			t.Fatalf("%s with chunk 0 replayed as chunk 1: got %v, want ErrMalformedArtifact", name, err)
		}
	}
	if _, _, err := LoadOrCompile(dir, g, sample, 2, fx.o); !errors.Is(err, ErrMalformedArtifact) {
		t.Fatalf("LoadOrCompile over a corrupt store: got %v, want ErrMalformedArtifact", err)
	}

	// A missing chunk is a miss; LoadOrCompile recompiles and refills, and
	// the refilled store is a hit with the same files as before.
	if err := os.Remove(paths[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadShardedSystem(dir, g, sample, 2, fx.o); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing chunk: got %v, want os.ErrNotExist", err)
	}
	refilled, fromStore, err := LoadOrCompile(dir, g, sample, 2, fx.o)
	if err != nil || fromStore {
		t.Fatalf("LoadOrCompile over a missing chunk: fromStore=%v err=%v", fromStore, err)
	}
	if err := refilled.Verify(fx.proof); err != nil {
		t.Fatalf("recompiled chain rejects the original proof: %v", err)
	}
	if got, err := os.ReadFile(paths[1]); err != nil || !bytes.Equal(got, chunk1) {
		t.Fatalf("refilled chunk 1 differs from the original (err=%v)", err)
	}
	if _, fromStore, err = LoadOrCompile(dir, g, sample, 2, fx.o); err != nil || !fromStore {
		t.Fatalf("LoadOrCompile over the refilled store: fromStore=%v err=%v", fromStore, err)
	}
}

// TestOneChunkChainIsTheSingleCircuit pins what lets the CLI and the daemon
// hold a ShardedSystem for every request: at one shard the chain is the
// plain system. Same artifact path and bytes, same model commitment, same
// exported proof format; each side verifies the other's proofs and loads
// the other's store with zero set-up work.
func TestOneChunkChainIsTheSingleCircuit(t *testing.T) {
	for _, backend := range []Backend{KZG, IPA} {
		o := opts()
		o.Backend = backend
		spec, err := Model("dlrm-micro")
		if err != nil {
			t.Fatal(err)
		}
		g, sample, in := spec.Build(), spec.Input(1), spec.Input(7)

		restore := seedRandom("one-chunk")
		single, err := Compile(g, sample, o)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		restore = seedRandom("one-chunk")
		chain, err := CompileSharded(g, sample, 1, o)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if chain.Shards() != 1 || chain.Chunks[0].Plan.Graph != g {
			t.Fatalf("%v: one-shard chain does not hold the caller's graph", backend)
		}
		if !bytes.Equal(single.ModelCommitment(), chain.ModelCommitment()) {
			t.Fatalf("%v: model commitment differs between Compile and CompileSharded(1)", backend)
		}
		if single.Describe() != chain.Describe() {
			t.Fatalf("%v: describe differs: %q vs %q", backend, single.Describe(), chain.Describe())
		}

		singleDir, chainDir := t.TempDir(), t.TempDir()
		singlePath, err := single.Save(singleDir)
		if err != nil {
			t.Fatal(err)
		}
		chainPaths, err := chain.Save(chainDir)
		if err != nil {
			t.Fatal(err)
		}
		if len(chainPaths) != 1 || filepath.Base(chainPaths[0]) != filepath.Base(singlePath) {
			t.Fatalf("%v: chain saved to %v, single to %s", backend, chainPaths, singlePath)
		}
		a, err := os.ReadFile(singlePath)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(chainPaths[0])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%v: artifact bytes differ between System.Save and ShardedSystem.Save", backend)
		}

		// Proofs: same wire format, and each side accepts the other's.
		singleBytes := exportedProof(t, single, in)
		restore = seedRandom("store-test")
		cp, rep, err := chain.ProveTraced(in)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if rep == nil || len(chain.Chunks[0].CompareEstimate(rep)) == 0 {
			t.Fatalf("%v: traced one-chunk prove returned no usable report", backend)
		}
		chainBytes, err := chain.ExportProof(cp)
		if err != nil {
			t.Fatal(err)
		}
		if len(chainBytes) != len(singleBytes) {
			t.Fatalf("%v: exported proof is %d bytes from the chain, %d from the system", backend, len(chainBytes), len(singleBytes))
		}
		fromChain, err := single.ImportProof(chainBytes)
		if err != nil {
			t.Fatal(err)
		}
		if err := single.Verify(fromChain); err != nil {
			t.Fatalf("%v: system rejects the chain's proof: %v", backend, err)
		}
		fromSingle, err := chain.ImportProof(singleBytes)
		if err != nil {
			t.Fatal(err)
		}
		if err := chain.Verify(fromSingle); err != nil {
			t.Fatalf("%v: chain rejects the system's proof: %v", backend, err)
		}
		if got, want := chain.Outputs(fromSingle), single.Outputs(fromChain); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%v: outputs differ: %v vs %v", backend, got, want)
		}

		// Stores: a System.Save'd directory is a hit for the one-shard
		// chain (how zkmld starts over the benchmark's store), and a
		// chain's directory is a hit for LoadSystem — neither doing any
		// set-up work.
		before := pcs.SetupWorkSnapshot()
		warm, fromStore, err := LoadOrCompile(singleDir, spec.Build(), sample, 1, o)
		if err != nil || !fromStore {
			t.Fatalf("%v: LoadOrCompile over a System.Save'd store: fromStore=%v err=%v", backend, fromStore, err)
		}
		plain, err := LoadSystem(chainDir, spec.Build(), sample, o)
		if err != nil {
			t.Fatalf("%v: LoadSystem over a chain's store: %v", backend, err)
		}
		if d := pcs.SetupWorkSnapshot().Sub(before); !d.IsZero() {
			t.Fatalf("%v: cross-loading the stores did set-up work: %+v", backend, d)
		}
		if err := warm.Verify(fromSingle); err != nil {
			t.Fatal(err)
		}
		if err := plain.Verify(fromChain); err != nil {
			t.Fatal(err)
		}
	}
}
