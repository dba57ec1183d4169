package zkml

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/ff"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/plonkish"
	"repro/internal/wire"
)

// Sharded proving (DESIGN.md §16): the model graph is partitioned at layer
// boundaries into N ≥ 1 chunks, each chunk is an ordinary System — its own
// optimizer-selected circuit, keys and .zka artifact — and the
// chunk-boundary activations are exposed as committed public values on both
// sides of every cut. Chunks prove in parallel; verification checks every
// per-chunk proof plus boundary equality between adjacent chunks, which
// binds the chain end to end. One shard is the unsharded circuit: the single
// chunk is the caller's graph, so its artifact, model commitment and
// exported proofs are those of Compile.

// ErrTraceSharded: stage tracing covers one circuit's prover pipeline and
// the kernel sinks are process-wide, so a chain of more than one chunk
// cannot be traced.
var ErrTraceSharded = errors.New("zkml: stage tracing is per-circuit and not supported with more than one shard")

// ShardedProof is one proof per chunk, verified as a chain. The boundary
// activations appear in two chunks' instance columns (producer and
// consumer); Verify checks them for equality.
type ShardedProof struct {
	Chunks []*Proof
}

// Size is the total size of the chunk proofs in bytes, public values
// excluded.
func (p *ShardedProof) Size() int {
	n := 0
	for _, pf := range p.Chunks {
		n += pf.Proof.Size()
	}
	return n
}

// ShardedSystem is a model compiled as a chain: the partitioning that says
// how the chunks link, and one System per chunk.
type ShardedSystem struct {
	Part   *model.Partitioning
	Chunks []*System
}

// buildChain partitions the model into shards chunks and builds each
// chunk's System with build, in chain order: chunk layouts are
// input-independent but witness synthesis is not, and chunk c's sample
// input needs the boundary activations the chunks before it publish.
func buildChain(g *Graph, sample *Input, shards int, build func(cg *Graph, cin *Input) (*System, error)) (*ShardedSystem, error) {
	part, err := model.Partition(g, sample, shards)
	if err != nil {
		return nil, err
	}
	s := &ShardedSystem{Part: part}
	acts := map[string][]int64{}
	for c := range part.Chunks {
		cg := part.Chunks[c].Graph
		cin, err := part.ChunkInput(c, sample, acts)
		if err != nil {
			return nil, err
		}
		sys, err := build(cg, cin)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cg.Name, err)
		}
		s.Chunks = append(s.Chunks, sys)
		if c+1 < len(part.Chunks) {
			if _, err := sys.Plan.SynthesizeLink(cin, acts); err != nil {
				return nil, fmt.Errorf("%s: %w", cg.Name, err)
			}
		}
	}
	return s, nil
}

// ChunkLayout is the optimizer's result for one chunk: the chosen plan,
// every candidate considered, and the search statistics.
type ChunkLayout struct {
	Plan       *core.Plan
	Candidates []core.Candidate
	Stats      core.Stats
}

// optimizeChain runs the layout optimizer independently on each chunk,
// returning the chain with plans but no keys yet, and what the optimizer
// considered per chunk.
func optimizeChain(g *Graph, sample *Input, shards int, o Options) (*ShardedSystem, []ChunkLayout, error) {
	var layouts []ChunkLayout
	s, err := buildChain(g, sample, shards, func(cg *Graph, cin *Input) (*System, error) {
		plan, cands, stats, err := Optimize(cg, cin, o)
		if err != nil {
			return nil, err
		}
		layouts = append(layouts, ChunkLayout{Plan: plan, Candidates: cands, Stats: stats})
		return &System{Plan: plan, opts: o}, nil
	})
	return s, layouts, err
}

// OptimizeSharded partitions the model into shards chunks and runs the
// layout optimizer independently on each chunk, without generating keys.
func OptimizeSharded(g *Graph, sample *Input, shards int, o Options) ([]ChunkLayout, error) {
	_, layouts, err := optimizeChain(g, sample, shards, o)
	return layouts, err
}

// CompileSharded partitions the model into shards chunks, optimizes each
// chunk's circuit layout independently, and then generates per-chunk proving
// and verification keys — per chunk, the two steps of Compile. All layouts
// are chosen before the first key exists, so the optimizer's allocation-heavy
// sweeps never run on top of live key material. With shards == 1 the one
// chunk is what Compile(g, sample, o) returns.
func CompileSharded(g *Graph, sample *Input, shards int, o Options) (*ShardedSystem, error) {
	s, _, err := optimizeChain(g, sample, shards, o)
	if err != nil {
		return nil, err
	}
	for _, ch := range s.Chunks {
		if ch.Keys, err = ch.Plan.Setup(); err != nil {
			return nil, fmt.Errorf("zkml: %s: keygen: %w", ch.Plan.Graph.Name, err)
		}
	}
	return s, nil
}

// LoadShardedSystem reconstructs a compiled chain from the per-chunk
// artifacts saved in dir: the partitioning is recomputed from the model and
// every chunk goes through LoadSystem, whose model-hash check pins the
// chunk's identity, position and the shard count (chunk graphs are named
// model#c/N). If any chunk's artifact is missing the error wraps
// os.ErrNotExist.
func LoadShardedSystem(dir string, g *Graph, sample *Input, shards int, o Options) (*ShardedSystem, error) {
	return buildChain(g, sample, shards, func(cg *Graph, cin *Input) (*System, error) {
		return LoadSystem(dir, cg, cin, o)
	})
}

// LoadShardedVerifier is LoadShardedSystem through LoadVerifier: chunk keys
// carry only the verifying side and Prove returns an error.
func LoadShardedVerifier(dir string, g *Graph, sample *Input, shards int, o Options) (*ShardedSystem, error) {
	return buildChain(g, sample, shards, func(cg *Graph, cin *Input) (*System, error) {
		return LoadVerifier(dir, cg, cin, o)
	})
}

// LoadOrCompile returns the proving system for (model, shards, options):
// loaded from the artifact store in dir when every chunk is there — no
// optimizer sweep, no keygen — and otherwise compiled once and saved into dir
// for next time. An empty dir compiles and saves nothing. fromStore reports
// which of the two happened.
func LoadOrCompile(dir string, g *Graph, sample *Input, shards int, o Options) (sys *ShardedSystem, fromStore bool, err error) {
	if dir != "" {
		sys, err = LoadShardedSystem(dir, g, sample, shards, o)
		if err == nil {
			return sys, true, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return nil, false, err
		}
	}
	sys, err = CompileSharded(g, sample, shards, o)
	if err != nil {
		return nil, false, err
	}
	if dir != "" {
		if _, err := sys.Save(dir); err != nil {
			return nil, false, err
		}
	}
	return sys, false, nil
}

// Save persists every chunk with System.Save, returning the file paths in
// chain order. Each write is atomic; a crash between chunks leaves a store
// that misses (os.ErrNotExist) and is refilled by the next LoadOrCompile.
func (s *ShardedSystem) Save(dir string) ([]string, error) {
	paths := make([]string, len(s.Chunks))
	for c, ch := range s.Chunks {
		path, err := ch.Save(dir)
		if err != nil {
			return nil, err
		}
		paths[c] = path
	}
	return paths, nil
}

// Shards reports the chunk count.
func (s *ShardedSystem) Shards() int { return len(s.Chunks) }

// Prove synthesizes all chunk witnesses (sequentially — the chain feeds
// forward, and synthesis is cheap next to proving) and proves the chunks in
// parallel on the process-wide worker pool. The proof is byte-for-byte
// independent of the worker count.
func (s *ShardedSystem) Prove(in *Input) (*ShardedProof, error) {
	for _, ch := range s.Chunks {
		if ch.Keys == nil || ch.Keys.PK == nil {
			return nil, fmt.Errorf("zkml: %s: keys carry no proving key (verify-only system)", ch.Plan.Graph.Name)
		}
	}
	acts := map[string][]int64{}
	instances := make([][][]ff.Element, len(s.Chunks))
	witnesses := make([]plonkish.Witness, len(s.Chunks))
	for c, ch := range s.Chunks {
		cin, err := s.Part.ChunkInput(c, in, acts)
		if err != nil {
			return nil, err
		}
		art, err := ch.Plan.SynthesizeLink(cin, acts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ch.Plan.Graph.Name, err)
		}
		instances[c], witnesses[c] = art.Instance, art.Witness
	}
	// Blinding: each chunk gets an independent SHA-256 counter stream whose
	// seed is derived here, sequentially, on this goroutine. With the default
	// crypto/rand source the streams are cryptographically random; with a
	// deterministic source installed via ff.SetRandomSource the whole
	// derivation is replayable, and because no chunk ever touches the shared
	// source from a worker goroutine, proof bytes do not depend on the
	// parallel schedule.
	rngs := make([]*blindStream, len(s.Chunks))
	for c := range rngs {
		rngs[c] = newBlindStream(c)
	}
	type res struct {
		proof *Proof
		err   error
	}
	results := parallel.Map(len(s.Chunks), func(c int) res {
		proof, err := plonkish.ProveWithRand(s.Chunks[c].Keys.PK, instances[c], witnesses[c], rngs[c])
		if err != nil {
			return res{err: fmt.Errorf("%s: %w", s.Chunks[c].Plan.Graph.Name, err)}
		}
		return res{proof: &Proof{Proof: proof, Instance: instances[c]}}
	})
	out := &ShardedProof{Chunks: make([]*Proof, len(results))}
	for c, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		out.Chunks[c] = r.proof
	}
	return out, nil
}

// ProveTraced is Prove with stage-level observability (see
// System.ProveTraced) for a one-chunk chain; more chunks return
// ErrTraceSharded. The report lines up against Chunks[0].CompareEstimate.
func (s *ShardedSystem) ProveTraced(in *Input) (*ShardedProof, *obs.Report, error) {
	if len(s.Chunks) != 1 {
		return nil, nil, ErrTraceSharded
	}
	p, rep, err := s.Chunks[0].ProveTraced(in)
	if err != nil {
		return nil, nil, err
	}
	return &ShardedProof{Chunks: []*Proof{p}}, rep, nil
}

// blindStream expands a 32-byte seed into an unbounded byte stream via
// SHA-256 in counter mode. It is the per-chunk blinding source handed to
// plonkish.ProveWithRand; each chunk owns its stream exclusively, so the
// reader needs no locking.
type blindStream struct {
	seed [32]byte
	ctr  uint64
	buf  []byte
}

func (b *blindStream) Read(p []byte) (int, error) {
	for len(b.buf) < len(p) {
		h := sha256.New()
		h.Write(b.seed[:])
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], b.ctr)
		h.Write(n[:])
		b.ctr++
		b.buf = h.Sum(b.buf)
	}
	n := copy(p, b.buf)
	b.buf = b.buf[n:]
	return n, nil
}

// newBlindStream derives chunk c's blinding seed from two draws on the
// process randomness source plus the chunk index. Must be called on the
// proving goroutine, in chunk order, before any parallel work starts.
func newBlindStream(c int) *blindStream {
	h := sha256.New()
	h.Write([]byte("zkml-shard-blind"))
	var idx [8]byte
	binary.LittleEndian.PutUint64(idx[:], uint64(c))
	h.Write(idx[:])
	for i := 0; i < 2; i++ {
		e := ff.Random()
		eb := e.Bytes()
		h.Write(eb[:])
	}
	s := &blindStream{}
	h.Sum(s.seed[:0])
	return s
}

// Verify checks the proof chain: every chunk proof against its own
// verification key, the declared instance shapes, and boundary
// instance-segment equality along every wire. Structural failures wrap
// ErrMalformedProof; a well-formed chain whose boundary activations disagree
// (a tampered or swapped chunk) wraps ErrVerifyFailed.
func (s *ShardedSystem) Verify(p *ShardedProof) error {
	if p == nil || len(p.Chunks) != len(s.Chunks) {
		n := 0
		if p != nil {
			n = len(p.Chunks)
		}
		return fmt.Errorf("zkml: proof carries %d chunks, system has %d: %w", n, len(s.Chunks), ErrMalformedProof)
	}
	for c, pf := range p.Chunks {
		if pf == nil || pf.Proof == nil {
			return fmt.Errorf("zkml: chunk %d proof missing: %w", c, ErrMalformedProof)
		}
		if want := s.Part.Chunks[c].InstanceLen; len(pf.Instance) != 1 || len(pf.Instance[0]) != want {
			return fmt.Errorf("zkml: chunk %d instance shape mismatch (want 1 column of %d values): %w", c, want, ErrMalformedProof)
		}
		if err := s.Chunks[c].Verify(pf); err != nil {
			return fmt.Errorf("zkml: chunk %d: %w", c, err)
		}
	}
	for _, w := range s.Part.Wires {
		from := p.Chunks[w.From].Instance[0][w.FromOff : w.FromOff+w.Elems]
		to := p.Chunks[w.To].Instance[0][w.ToOff : w.ToOff+w.Elems]
		for i := range from {
			if !from[i].Equal(&to[i]) {
				return fmt.Errorf("zkml: boundary activation %q element %d differs between chunk %d and chunk %d: %w",
					w.Tensor, i, w.From, w.To, ErrVerifyFailed)
			}
		}
	}
	return nil
}

// Outputs dequantizes the full-model public output values of a proof,
// flattened in the model's output order. Returns nil for a proof whose
// instance shapes do not match the system (Verify reports the typed error).
func (s *ShardedSystem) Outputs(p *ShardedProof) []float64 {
	if p == nil || len(p.Chunks) != len(s.Chunks) {
		return nil
	}
	fp := s.Chunks[0].Plan.Config.FP
	var out []float64
	for _, f := range s.Part.Finals {
		pf := p.Chunks[f.Chunk]
		if pf == nil || len(pf.Instance) != 1 || len(pf.Instance[0]) < f.Offset+f.Elems {
			return nil
		}
		for _, v := range pf.Instance[0][f.Offset : f.Offset+f.Elems] {
			out = append(out, fp.Dequantize(v.Int64()))
		}
	}
	return out
}

// Audit runs the static circuit auditor over every chunk circuit, pinned to
// each chunk's actual proving key, returning one report per chunk.
func (s *ShardedSystem) Audit() ([]*AuditReport, error) {
	reports := make([]*AuditReport, len(s.Chunks))
	for c, ch := range s.Chunks {
		rep, err := ch.Audit()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ch.Plan.Graph.Name, err)
		}
		reports[c] = rep
	}
	return reports, nil
}

// AuditSharded compiles a sharded layout (optimizer only — no keygen) and
// audits every chunk circuit: the pre-keygen gate, one report per chunk.
func AuditSharded(g *Graph, sample *Input, shards int, o Options) ([]*AuditReport, error) {
	s, _, err := optimizeChain(g, sample, shards, o)
	if err != nil {
		return nil, err
	}
	return s.Audit()
}

// ExportProof serializes a proof for transport. One chunk exports exactly
// as System.ExportProof; a longer chain is a one-byte chunk count, then per
// chunk a 4-byte big-endian length plus that chunk's single-proof encoding.
func (s *ShardedSystem) ExportProof(p *ShardedProof) ([]byte, error) {
	if p == nil || len(p.Chunks) != len(s.Chunks) {
		return nil, fmt.Errorf("zkml: proof does not carry this system's %d chunks", len(s.Chunks))
	}
	if len(p.Chunks) == 1 {
		return exportProofBytes(p.Chunks[0])
	}
	if len(p.Chunks) > 255 {
		return nil, fmt.Errorf("zkml: sharded proof has %d chunks, export format supports at most 255", len(p.Chunks))
	}
	var w wire.Writer
	w.Byte(byte(len(p.Chunks)))
	for c, pf := range p.Chunks {
		blob, err := exportProofBytes(pf)
		if err != nil {
			return nil, fmt.Errorf("zkml: chunk %d: %w", c, err)
		}
		w.U32(len(blob))
		w.Raw(blob)
	}
	return w.Bytes(), nil
}

// ImportProof deserializes a proof produced by ExportProof. The bytes are
// untrusted: every length prefix is bounds-checked, each chunk goes through
// the hardened single-proof decoder (which rejects non-canonical instance
// scalars), and all structural failures wrap ErrMalformedProof.
func (s *ShardedSystem) ImportProof(data []byte) (*ShardedProof, error) {
	if len(s.Chunks) == 1 {
		pf, err := importProofBytes(data)
		if err != nil {
			return nil, err
		}
		return &ShardedProof{Chunks: []*Proof{pf}}, nil
	}
	r := wire.NewReader(data, ErrMalformedProof)
	if n := int(r.Byte("chunk count")); r.Err() == nil && n != len(s.Chunks) {
		r.Fail("sharded proof carries %d chunks, system has %d", n, len(s.Chunks))
	}
	p := &ShardedProof{Chunks: make([]*Proof, len(s.Chunks))}
	for c := range p.Chunks {
		blob := r.Next(r.Count("chunk byte", 1), "chunk")
		if r.Err() != nil {
			return nil, r.Err()
		}
		pf, err := importProofBytes(blob)
		if err != nil {
			return nil, fmt.Errorf("zkml: chunk %d: %w", c, err)
		}
		p.Chunks[c] = pf
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return p, nil
}

// ModelCommitment binds every chunk circuit (including committed weights)
// and their order: the one chunk's System.ModelCommitment, or for a longer
// chain the digest of the per-chunk verifying-key digests in chain order.
func (s *ShardedSystem) ModelCommitment() []byte {
	if len(s.Chunks) == 1 {
		return s.Chunks[0].ModelCommitment()
	}
	h := sha256.New()
	for _, ch := range s.Chunks {
		h.Write(ch.ModelCommitment())
	}
	return h.Sum(nil)
}

// Describe summarizes the compiled layout: System.Describe for one chunk,
// else a header and one line per chunk.
func (s *ShardedSystem) Describe() string {
	if len(s.Chunks) == 1 {
		return s.Chunks[0].Describe()
	}
	var cost float64
	size := 64 * s.Part.BoundaryElems // each boundary value is public on both sides of its cut
	for _, ch := range s.Chunks {
		cost += ch.Plan.Cost
		size += ch.Plan.Layout.ProofBytes
	}
	out := fmt.Sprintf("%s: %d chunks, %d boundary elems, est. %.2fs / %d B",
		s.Part.Model, len(s.Chunks), s.Part.BoundaryElems, cost, size)
	for _, ch := range s.Chunks {
		out += "\n  " + ch.Describe()
	}
	return out
}
