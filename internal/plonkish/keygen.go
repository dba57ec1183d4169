package plonkish

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/pcs"
	"repro/internal/poly"
)

// ProvingKey holds everything the prover needs: the circuit, the fixed
// column values and polynomials, the permutation sigmas, those columns'
// values on the quotient's coset parts, the compiled constraint and lookup
// programs, and the commitment scheme. It is always completed from its
// verifying key ((*VerifyingKey).ProvingKey), whose quotient program,
// queries and scheme it shares.
type ProvingKey struct {
	CS *CS
	N  int // rows (power of two)
	U  int // usable rows: N - ZKRows

	Domain    *poly.Domain
	ExtDomain *poly.Domain
	DMax      int

	// FixedVals includes the ZKML circuit's fixed columns followed by the
	// three internal columns: q_active, l_0, l_u.
	FixedVals  [][]ff.Element
	FixedPolys [][]ff.Element // coefficient form
	SigmaVals  [][]ff.Element // per permutation column
	SigmaPolys [][]ff.Element
	// CosetParts holds, for every fixed and sigma column the quotient
	// program reads, its values on each of the QuotientPieces(DMax) parts of
	// the extended coset: CosetParts[c][j] is ExtDomain.CosetPartFFT(·, j)
	// of the column's polynomial. Built once per key from the polynomials
	// above, never stored: p·N·32 bytes per column.
	CosetParts map[Col][][]ff.Element

	// Quotient is the flattened constraint list compiled to one program,
	// output order shared with the verifier; LookupInputs computes, per
	// lookup in order, its selector and then its inputs.
	Quotient     *Program
	LookupInputs *Program
	Queries      []Query // opening queries, order shared with the verifier

	Scheme pcs.Scheme
	VK     *VerifyingKey
}

// VerifyingKey is the model-specific verification key: commitments to the
// fixed and sigma polynomials plus the circuit shape (but no witness or
// weight values).
type VerifyingKey struct {
	CS   *CS
	N    int
	U    int
	DMax int

	FixedCommits []curve.Affine
	SigmaCommits []curve.Affine

	Quotient *Program
	Queries  []Query

	Scheme pcs.Scheme
}

// Internal fixed column roles appended after the circuit's own fixed
// columns.
func qActiveCol(cs *CS) Col { return FixedCol(cs.NumFixed) }
func l0Col(cs *CS) Col      { return FixedCol(cs.NumFixed + 1) }
func luCol(cs *CS) Col      { return FixedCol(cs.NumFixed + 2) }

// mCol / phiCol / zCol address argument-internal polynomials.
func mCol(k int) Col     { return Col{Kind: LookupM, Index: k} }
func phiCol(k int) Col   { return Col{Kind: LookupPhi, Index: k} }
func zCol(j int) Col     { return Col{Kind: PermZ, Index: j} }
func sigmaCol(i int) Col { return Col{Kind: PermSigma, Index: i} }

// validateShape checks the circuit/row-count invariants every key is built
// on.
func validateShape(cs *CS, n int) error {
	if err := cs.Validate(); err != nil {
		return err
	}
	if n <= 0 || n&(n-1) != 0 {
		return fmt.Errorf("plonkish: rows %d must be a power of two", n)
	}
	if n < 2*ZKRows {
		return fmt.Errorf("plonkish: rows %d too small (min %d)", n, 2*ZKRows)
	}
	u := n - ZKRows
	for _, l := range cs.Lookups {
		if l.TableLen > u {
			return fmt.Errorf("plonkish: lookup %q table (%d rows) exceeds usable rows %d", l.Name, l.TableLen, u)
		}
	}
	for _, cp := range cs.Copies {
		for _, cell := range cp {
			if cell.Row < 0 || cell.Row >= u {
				return fmt.Errorf("plonkish: copy constraint row %d outside usable region [0,%d)", cell.Row, u)
			}
		}
	}
	return nil
}

// Setup generates the proving and verifying keys for a circuit with n rows
// and the given fixed-column values (length cs.NumFixed, each of length n):
// it commits every key column, builds the verifying key over the
// commitments (SetupVK), and completes the proving key from the same column
// values.
func Setup(cs *CS, n int, fixed [][]ff.Element, backend pcs.Backend) (*ProvingKey, *VerifyingKey, error) {
	if err := validateShape(cs, n); err != nil {
		return nil, nil, err
	}
	cols, err := keyColumns(cs, n, fixed)
	if err != nil {
		return nil, nil, err
	}
	scheme, err := pcs.New(backend, n)
	if err != nil {
		return nil, nil, err
	}

	// Fixed and sigma columns are committed from their values, side by
	// side; the batch derives the scheme's Lagrange basis and builds its
	// table with the whole worker pool before it fans out.
	commits := pcs.CommitBatch(scheme, cols, true)
	nf := numKeyFixed(cs)
	vk, err := SetupVK(cs, n, backend, commits[:nf:nf], commits[nf:])
	if err != nil {
		return nil, nil, err
	}
	return vk.complete(cols), vk, nil
}

// numKeyFixed is the key's fixed-column count: the circuit's own, then
// q_active, l_0 and l_u.
func numKeyFixed(cs *CS) int { return cs.NumFixed + 3 }

// keyColumns returns the values over the n-row domain of every key column:
// the circuit's fixed columns, the internal q_active, l_0 and l_u, then one
// sigma per permutation column.
func keyColumns(cs *CS, n int, fixed [][]ff.Element) ([][]ff.Element, error) {
	if len(fixed) != cs.NumFixed {
		return nil, fmt.Errorf("plonkish: got %d fixed columns, want %d", len(fixed), cs.NumFixed)
	}
	for i, col := range fixed {
		if len(col) != n {
			return nil, fmt.Errorf("plonkish: fixed column %d has %d rows, want %d", i, len(col), n)
		}
	}
	u := n - ZKRows
	qa := make([]ff.Element, n)
	for r := 0; r < u; r++ {
		qa[r] = ff.One()
	}
	l0 := make([]ff.Element, n)
	l0[0] = ff.One()
	lu := make([]ff.Element, n)
	lu[u] = ff.One()
	sigmas, err := buildSigmas(cs, cs.PermCols(), n, u)
	if err != nil {
		return nil, err
	}
	cols := make([][]ff.Element, 0, numKeyFixed(cs)+len(sigmas))
	return append(append(append(cols, fixed...), qa, l0, lu), sigmas...), nil
}

// Digest returns a hash of the verifying key, absorbed into the transcript:
// n, u, d, the gate and lookup counts, and the fixed and sigma commitments.
// The gate and lookup expressions are not hashed.
func (vk *VerifyingKey) Digest() []byte {
	h := sha256.New()
	fmt.Fprintf(h, "n=%d u=%d d=%d g=%d lk=%d", vk.N, vk.U, vk.DMax, len(vk.CS.Gates), len(vk.CS.Lookups))
	for _, c := range vk.FixedCommits {
		b := c.Bytes()
		h.Write(b[:])
	}
	for _, c := range vk.SigmaCommits {
		b := c.Bytes()
		h.Write(b[:])
	}
	return h.Sum(nil)
}

// buildSigmas constructs the permutation sigma values: for each permutation
// column i and row r, the "extended id" of the cell that (i, r) maps to
// under the copy-constraint cycles. Extended ids are delta^i * omega^r.
func buildSigmas(cs *CS, permCols []Col, n, u int) ([][]ff.Element, error) {
	colIdx := map[Col]int{}
	for i, c := range permCols {
		colIdx[c] = i
	}
	// Cycle representation: next[i][r] points to another cell in the same
	// copy cycle; initially self-loops.
	type cell struct{ col, row int }
	next := make([][]cell, len(permCols))
	for i := range next {
		next[i] = make([]cell, n)
		for r := range next[i] {
			next[i][r] = cell{i, r}
		}
	}
	// Union-find to avoid splicing two cells already in the same cycle
	// (which would split it).
	parent := make([]int, len(permCols)*n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	id := func(c cell) int { return c.col*n + c.row }

	for _, cp := range cs.Copies {
		ia, ok := colIdx[cp[0].Col]
		if !ok {
			return nil, fmt.Errorf("plonkish: copy references column outside permutation")
		}
		ib, ok := colIdx[cp[1].Col]
		if !ok {
			return nil, fmt.Errorf("plonkish: copy references column outside permutation")
		}
		a := cell{ia, cp[0].Row}
		b := cell{ib, cp[1].Row}
		ra, rb := find(id(a)), find(id(b))
		if ra == rb {
			continue // already in the same cycle
		}
		parent[ra] = rb
		next[a.col][a.row], next[b.col][b.row] = next[b.col][b.row], next[a.col][a.row]
	}

	// Extended id values.
	delta := ff.MultiplicativeGen()
	deltaPow := make([]ff.Element, len(permCols))
	acc := ff.One()
	for i := range deltaPow {
		deltaPow[i] = acc
		acc.Mul(&acc, &delta)
	}
	dom := poly.NewDomain(n)
	omegaPow := dom.Elements()

	out := make([][]ff.Element, len(permCols))
	for i := range out {
		out[i] = make([]ff.Element, n)
		for r := 0; r < n; r++ {
			nx := next[i][r]
			var v ff.Element
			v.Mul(&deltaPow[nx.col], &omegaPow[nx.row])
			out[i][r] = v
		}
	}
	return out, nil
}

// buildConstraints flattens the circuit's gates plus the lookup and
// permutation argument constraints into a single ordered list; both prover
// (quotient) and verifier (identity at x) iterate this list with the same
// y-challenge powers.
func buildConstraints(cs *CS, u int) []Expr {
	var out []Expr
	for _, g := range cs.Gates {
		out = append(out, g.Polys...)
	}

	beta := Expr(ArgChallengeExpr{Kind: Beta})
	gamma := Expr(ArgChallengeExpr{Kind: Gamma})
	theta := Expr(ArgChallengeExpr{Kind: Theta})
	qa := V(qActiveCol(cs))
	l0 := V(l0Col(cs))
	lu := V(luCol(cs))
	one := C(ff.One())

	// Lookup arguments (LogUp): for lookup k with compressed input f and
	// compressed table t,
	//   q_active·[(φ(ωX)-φ(X))(β+f)(β+t) - sel·(β+t) + m·(β+f)] = 0
	//   l_0·φ = 0,  l_u·φ = 0.
	for k, l := range cs.Lookups {
		f := compress(theta, l.Inputs)
		tcols := make([]Expr, len(l.Table))
		for i, tc := range l.Table {
			tcols[i] = V(tc)
		}
		t := compress(theta, tcols)
		bf := Sum(beta, f)
		bt := Sum(beta, t)
		phi := V(phiCol(k))
		phiNext := VRot(phiCol(k), 1)
		m := V(mCol(k))
		running := Mul(qa, Sum(
			Mul(Sub(phiNext, phi), bf, bt),
			Neg(Mul(l.Selector, bt)),
			Mul(m, bf),
		))
		out = append(out, running, Mul(l0, phi), Mul(lu, phi))
	}

	// Permutation argument, chunked at d_max - 2 columns per grand
	// product.
	permCols := cs.PermCols()
	if numChunks := cs.numZ(); numChunks > 0 {
		chunk := cs.PermChunk()
		delta := ff.MultiplicativeGen()
		deltaPow := ff.One()
		dp := make([]ff.Element, len(permCols))
		for i := range dp {
			dp[i] = deltaPow
			deltaPow.Mul(&deltaPow, &delta)
		}
		out = append(out, Mul(l0, Sub(V(zCol(0)), one)))
		for j := 0; j < numChunks; j++ {
			lo := j * chunk
			hi := lo + chunk
			if hi > len(permCols) {
				hi = len(permCols)
			}
			idFactors := make([]Expr, 0, hi-lo)
			sigmaFactors := make([]Expr, 0, hi-lo)
			for i := lo; i < hi; i++ {
				v := V(permCols[i])
				idFactors = append(idFactors, Sum(v, Mul(beta, Scale(dp[i], XExpr{})), gamma))
				sigmaFactors = append(sigmaFactors, Sum(v, Mul(beta, V(sigmaCol(i))), gamma))
			}
			z := V(zCol(j))
			zNext := VRot(zCol(j), 1)
			running := Mul(qa, Sub(
				Mul(append([]Expr{zNext}, sigmaFactors...)...),
				Mul(append([]Expr{z}, idFactors...)...),
			))
			out = append(out, running)
			if j > 0 {
				out = append(out, Mul(l0, Sub(V(zCol(j)), VRot(zCol(j-1), u))))
			}
		}
		out = append(out, Mul(lu, Sub(V(zCol(numChunks-1)), one)))
	}
	return out
}

// compress folds a tuple with powers of theta: e_0 + θ·e_1 + θ²·e_2 + ...
func compress(theta Expr, es []Expr) Expr {
	if len(es) == 1 {
		return es[0]
	}
	// Horner: ((e_k·θ + e_{k-1})·θ + ...)·θ + e_0.
	acc := es[len(es)-1]
	for i := len(es) - 2; i >= 0; i-- {
		acc = Sum(Mul(acc, theta), es[i])
	}
	return acc
}

// AllConstraints returns the full flattened constraint list the prover and
// verifier enforce for a u-usable-row instantiation of this circuit: the
// user gates followed by the lookup-argument and permutation-argument
// constraints, in transcript order. Analysis passes (internal/audit) walk
// this list to bound the quotient degree against exactly what the prover
// will evaluate, argument machinery included.
func (cs *CS) AllConstraints(u int) []Expr {
	return buildConstraints(cs, u)
}

// compileConstraints builds what every key path derives from the circuit
// rather than stores: the flattened constraints compiled to the quotient
// program, and the opening queries — every queried cell except instance
// cells, which the verifier evaluates directly from public values.
func compileConstraints(cs *CS, u int) (*Program, []Query) {
	constraints := buildConstraints(cs, u)
	all := CollectQueries(constraints...)
	queries := make([]Query, 0, len(all))
	for _, q := range all {
		if q.Col.Kind != Instance {
			queries = append(queries, q)
		}
	}
	return Compile(constraints...), queries
}

// compileLookupInputs compiles every lookup's selector and inputs into one
// program: lookup k's selector is output o_k = Σ_{i<k} (1 + len(Inputs_i)),
// followed by its inputs.
func compileLookupInputs(cs *CS) *Program {
	var exprs []Expr
	for _, l := range cs.Lookups {
		exprs = append(append(exprs, l.Selector), l.Inputs...)
	}
	return Compile(exprs...)
}
