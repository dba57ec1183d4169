package plonkish

import (
	"math/bits"

	"repro/internal/obs"
	"repro/internal/pcs"
)

// Shape is the work one proof of a circuit does on an n-row grid, counted
// from the code that builds its keys and proves it: the transforms and
// commitments of each prover stage, the compiled quotient program, the
// opening queries and the proof's length. The cost model prices these
// counts (costmodel.Calibration.PredictStages); nothing re-derives them by
// hand.
type Shape struct {
	Backend pcs.Backend
	// K and N are the grid (N = 2^K rows); ExtN is the size of the
	// extended domain whose coset holds the points the quotient is
	// evaluated at — QuotientPieces(DMax) of its ExtN/N size-N parts.
	K, N, ExtN int
	// DMax is the degree bound; the quotient is committed as DMax − 1
	// size-N pieces (at least one).
	DMax int

	// Transforms and Commits count, per prover stage (indexed by obs.Stage),
	// the size-N NTTs and the size-N commitment MSMs it runs:
	//
	//	commit       one transform per instance and advice column, one
	//	             commitment per advice column
	//	lookup       two of each per lookup (m and phi)
	//	permutation  one of each per grand-product chunk
	//	quotient     per quotient piece, one coset-part transform per
	//	             queried column and one inverse transform of the
	//	             part, and one commitment
	//	open         one witness commitment per opening (KZG only)
	//
	// An IPA opening's folds (FoldRounds rounds of two MSMs at halving
	// sizes) are apart.
	Transforms, Commits [obs.NumStages]int

	NumLookups     int
	NumConstraints int // flattened constraints: gates plus argument constraints
	PermCols       int // columns under the permutation argument
	QueriedCols    int // distinct columns the quotient program reads
	// Ops is the size of the compiled quotient program; VaryingOps of them
	// run per row — on each quotient part and on H — the rest once.
	Ops, VaryingOps int
	// Queries is the number of opened evaluations (instance cells excluded),
	// Opens the number of opening proofs: one per distinct rotation.
	Queries, Opens int
	// FoldRounds is the number of halving rounds in one IPA opening (zero
	// for KZG).
	FoldRounds int
	// ProofBytes is Proof.Size of every proof made with these keys.
	ProofBytes int
}

// ShapeOf counts the work a proof of cs on an n-row grid does with the
// given backend. It compiles the constraints as keygen does and does no
// witness, sigma, transform or MSM work.
func ShapeOf(cs *CS, n int, backend pcs.Backend) Shape {
	dmax := cs.Degree()
	prog, queries := compileConstraints(cs, n-ZKRows)
	queried, _ := prog.columns()
	s := Shape{
		Backend: backend, K: bits.TrailingZeros(uint(n)), N: n, ExtN: ExtDomainSize(n, dmax), DMax: dmax,
		NumLookups: len(cs.Lookups), NumConstraints: len(prog.outputs), PermCols: len(cs.PermCols()),
		QueriedCols: len(queried), Ops: prog.Len(), VaryingOps: prog.Varying(),
		Queries: len(queries), Opens: len(distinctRots(queries)),
	}
	pieces, chunks := QuotientPieces(dmax), cs.numZ()
	s.Transforms[obs.StageCommit], s.Commits[obs.StageCommit] = cs.NumInstance+cs.NumAdvice, cs.NumAdvice
	s.Transforms[obs.StageLookup], s.Commits[obs.StageLookup] = 2*s.NumLookups, 2*s.NumLookups
	s.Transforms[obs.StagePerm], s.Commits[obs.StagePerm] = chunks, chunks
	s.Transforms[obs.StageQuotient], s.Commits[obs.StageQuotient] = pieces*s.QueriedCols+pieces, pieces
	if backend == pcs.IPA {
		s.FoldRounds = s.K
	} else {
		s.Commits[obs.StageOpen] = s.Opens
	}
	commits := cs.NumAdvice + 2*s.NumLookups + chunks + pieces
	s.ProofBytes = 32*(commits+s.Queries+pieces) + s.Opens*pcs.OpeningSize(backend, n)
	return s
}

// ExtDomainSize is the size of the extended domain the quotient of a
// degree-dmax circuit on n rows is computed over: the smallest power of two
// that holds its dmax·(n−1)+1 coefficients.
func ExtDomainSize(n, dmax int) int {
	ext := 1
	for ext < dmax*(n-1)+1 {
		ext <<= 1
	}
	return ext
}

// QuotientPieces is the number of size-n pieces the quotient of a
// degree-dmax circuit is committed as, and the number of extended-coset
// parts the prover evaluates it on: dmax − 1, and at least one.
func QuotientPieces(dmax int) int { return max(dmax-1, 1) }
