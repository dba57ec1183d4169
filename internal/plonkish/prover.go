package plonkish

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/pcs"
	"repro/internal/poly"
	"repro/internal/transcript"
)

// Witness supplies advice values. Fill is called once per commitment phase;
// phase-1 fills see the challenges squeezed after phase 0 (used by
// Freivalds-checked layers). It must not write the assignment's fixed
// columns: in a prove they are the proving key's own.
type Witness interface {
	Fill(phase int, challenges []ff.Element, a *Assignment) error
}

// WitnessFunc adapts a function to the Witness interface.
type WitnessFunc func(phase int, challenges []ff.Element, a *Assignment) error

// Fill implements Witness.
func (f WitnessFunc) Fill(phase int, challenges []ff.Element, a *Assignment) error {
	return f(phase, challenges, a)
}

// Proof is a complete ZK-SNARK proof of circuit satisfaction.
type Proof struct {
	AdviceCommits   []curve.Affine
	MCommits        []curve.Affine
	PhiCommits      []curve.Affine
	ZCommits        []curve.Affine
	QuotientCommits []curve.Affine
	Evals           []ff.Element // ordered per VerifyingKey.Queries
	QuotientEvals   []ff.Element
	Openings        []*pcs.Opening // one per distinct rotation group
}

// Size returns the serialized proof size in bytes: 32 bytes per compressed
// commitment and per scalar, plus the opening proofs. This is the quantity
// reported in the paper's proof-size columns.
func (p *Proof) Size() int {
	n := 32 * (len(p.AdviceCommits) + len(p.MCommits) + len(p.PhiCommits) +
		len(p.ZCommits) + len(p.QuotientCommits))
	n += 32 * (len(p.Evals) + len(p.QuotientEvals))
	for _, o := range p.Openings {
		n += o.Size()
	}
	return n
}

// Prove produces a proof that the witness satisfies pk's circuit with the
// given public instance values (one slice per instance column, each at most
// U values; missing tail values are zero). It transforms only the proof's
// own columns: the key's fixed and sigma columns come with their
// polynomials and their values on the quotient's coset parts, computed once
// when the key was completed (ShapeOf counts the transforms that remain).
// pk is only read, so concurrent proves may share it.
//
// Concurrency (DESIGN.md §8): every numeric stage — per-column IFFTs,
// lookup compression and multiplicity counting, permutation products, the
// quotient's coset parts, and the commitment MSMs beneath them — fans out
// over the internal/parallel worker pool, while the Fiat-Shamir transcript
// is driven exclusively from this goroutine in the same order as the serial
// prover. Blinding randomness is likewise drawn only on this goroutine in a
// fixed order, so with a deterministic randomness source the proof is
// byte-identical at every parallelism level (see TestProverDeterministic).
func Prove(pk *ProvingKey, instance [][]ff.Element, w Witness) (*Proof, error) {
	return prove(pk, instance, w, nil, nil)
}

// ProveWithRand is Prove with an explicit blinding source: all blinding
// rows are drawn from rng instead of the process randomness source. A nil
// rng is equivalent to Prove. The sharded prover uses it to give each
// chunk an independent deterministic stream so that proofs stay
// byte-identical regardless of which goroutine proves which chunk.
func ProveWithRand(pk *ProvingKey, instance [][]ff.Element, w Witness, rng io.Reader) (*Proof, error) {
	return prove(pk, instance, w, nil, rng)
}

// ProveTraced is Prove with per-stage observability (DESIGN.md §11): when
// trace is non-nil it records wall time per pipeline stage and arms the
// kernel counter sinks in curve, poly, and pcs for the duration of the
// call. Tracing is proof-transparent — it never touches the transcript or
// the witness, so the proof bytes are identical with tracing on or off —
// and a nil trace costs only pointer checks. The kernel sinks are
// process-wide, so at most one traced Prove should run at a time (untraced
// concurrent proves would merely leak their kernel counts into the trace).
func ProveTraced(pk *ProvingKey, instance [][]ff.Element, w Witness, trace *obs.Trace) (*Proof, error) {
	return prove(pk, instance, w, trace, nil)
}

func prove(pk *ProvingKey, instance [][]ff.Element, w Witness, trace *obs.Trace, rng io.Reader) (*Proof, error) {
	if trace != nil {
		prevCurve := curve.SetKernelTrace(trace.KernelSink())
		prevPoly := poly.SetKernelTrace(trace.KernelSink())
		prevPCS := pcs.SetKernelTrace(trace.KernelSink())
		defer func() {
			curve.SetKernelTrace(prevCurve)
			poly.SetKernelTrace(prevPoly)
			pcs.SetKernelTrace(prevPCS)
		}()
	}
	defer trace.Finish()
	st, err := commitStages(pk, instance, w, trace, rng)
	if err != nil {
		return nil, err
	}
	tr, proof, coeff := st.tr, st.proof, st.coeff

	trace.Stage(obs.StageQuotient)
	trace.RecordProgram(pk.Quotient.Len(), pk.Quotient.Varying())
	y := tr.Challenge("y")
	pieces, err := quotient(pk, st, &y)
	if err != nil {
		return nil, err
	}
	numPieces := len(pieces)
	proof.QuotientCommits = pcs.CommitBatch(pk.Scheme, pieces, false)
	for _, cm := range proof.QuotientCommits {
		tr.AppendPoint("quotient", cm)
	}

	trace.Stage(obs.StageOpen)
	x := tr.Challenge("x")

	// Evaluations at x (and rotations). Rotation points come from the
	// domain's element table rather than a big.Int Exp per query.
	pointOf := func(rot int) ff.Element {
		w := pk.Domain.Element(rot)
		w.Mul(&w, &x)
		return w
	}
	// One table of powers per point (poly.Evals): every query at a
	// rotation, and at rotation 0 the quotient pieces too.
	proof.Evals = make([]ff.Element, len(pk.Queries))
	proof.QuotientEvals = make([]ff.Element, numPieces)
	for _, rot := range distinctRots(pk.Queries) {
		var polys [][]ff.Element
		var at []int
		for i, q := range pk.Queries {
			if q.Rot == rot {
				polys = append(polys, coeff[q.Col])
				at = append(at, i)
			}
		}
		if rot == 0 {
			polys = append(polys, pieces...)
		}
		vals := poly.Evals(polys, pointOf(rot))
		for j, i := range at {
			proof.Evals[i] = vals[j]
		}
		copy(proof.QuotientEvals, vals[len(at):])
	}
	tr.AppendScalars("evals", proof.Evals)
	tr.AppendScalars("quotient-evals", proof.QuotientEvals)

	v := tr.Challenge("v")

	// Batched openings per rotation group, in rotation order: each group's
	// v-combined polynomial is built over coefficient ranges across the pool
	// (rotation 0 alone holds every quotient piece and most columns), then
	// opened, which absorbs into the transcript.
	rots := distinctRots(pk.Queries)
	proof.Openings = make([]*pcs.Opening, 0, len(rots))
	for _, rot := range rots {
		var polys [][]ff.Element
		for _, q := range pk.Queries {
			if q.Rot == rot {
				polys = append(polys, coeff[q.Col])
			}
		}
		if rot == 0 {
			polys = append(polys, pieces...)
		}
		proof.Openings = append(proof.Openings, pk.Scheme.Open(tr, combine(polys, &v), pointOf(rot)))
	}
	return proof, nil
}

// combine returns Σ_j v^j·polys[j], each worker summing every polynomial
// over its own range of coefficients.
func combine(polys [][]ff.Element, v *ff.Element) []ff.Element {
	pows := make([]ff.Element, len(polys))
	size := 0
	for j, p := range polys {
		if j == 0 {
			pows[j] = ff.One()
		} else {
			pows[j].Mul(&pows[j-1], v)
		}
		size = max(size, len(p))
	}
	comb := make([]ff.Element, size)
	parallel.Range(size, func(lo, hi int) {
		for j, p := range polys {
			if lo < len(p) {
				poly.AddScaled(comb[lo:hi], pows[j], p[lo:min(hi, len(p))])
			}
		}
	})
	return comb
}

// committed is what the commit, lookup and permutation stages leave for the
// quotient and the openings: the transcript, the proof's commitments so
// far, the challenges drawn, and every column the constraints read, as its
// values over H (lag) and as coefficients (coeff), addressed by Col.
type committed struct {
	tr         *transcript.Transcript
	proof      *Proof
	lag, coeff map[Col][]ff.Element
	challenges []ff.Element
	arg        [3]ff.Element
}

// commitStages runs the prover's first three stages: it fills, blinds,
// interpolates and commits the advice columns phase by phase, then the
// lookup multiplicities m and accumulators phi, then the permutation grand
// products z.
func commitStages(pk *ProvingKey, instance [][]ff.Element, w Witness, trace *obs.Trace, rng io.Reader) (*committed, error) {
	trace.Stage(obs.StageCommit)

	cs := pk.CS
	n, u := pk.N, pk.U
	if len(instance) != cs.NumInstance {
		return nil, fmt.Errorf("plonkish: got %d instance columns, want %d", len(instance), cs.NumInstance)
	}

	a := &Assignment{N: n, Fixed: pk.FixedVals[:cs.NumFixed:cs.NumFixed],
		Advice: zeroColumns(cs.NumAdvice, n), Instance: zeroColumns(cs.NumInstance, n)}
	for i, col := range instance {
		if len(col) > u {
			return nil, fmt.Errorf("plonkish: instance column %d has %d values, max %d", i, len(col), u)
		}
		copy(a.Instance[i], col)
	}

	tr := transcript.New("zkml-plonkish")
	tr.AppendBytes("vk", pk.VK.Digest())
	for _, col := range instance {
		tr.AppendScalars("instance", col)
	}

	proof := &Proof{}

	// Polynomial registry: lagrange values and coefficient form for every
	// internal polynomial, addressed by Col. Writes happen only on this
	// goroutine; parallel stages read it after all writes they depend on.
	lag := map[Col][]ff.Element{}
	coeff := map[Col][]ff.Element{}
	ifft := func(vals []ff.Element) []ff.Element {
		p := append([]ff.Element(nil), vals...)
		pk.Domain.IFFT(p)
		return p
	}
	register := func(c Col, vals, coeffs []ff.Element) {
		lag[c] = vals
		coeff[c] = coeffs
	}
	// commit commits columns from their values, side by side
	// (pcs.CommitBatch), and absorbs the commitments in column order.
	commit := func(vals [][]ff.Element, label string) []curve.Affine {
		cms := pcs.CommitBatch(pk.Scheme, vals, true)
		for _, cm := range cms {
			tr.AppendPoint(label, cm)
		}
		return cms
	}
	for i := range pk.FixedVals {
		lag[FixedCol(i)] = pk.FixedVals[i]
		coeff[FixedCol(i)] = pk.FixedPolys[i]
	}
	for i := range pk.SigmaVals {
		lag[sigmaCol(i)] = pk.SigmaVals[i]
		coeff[sigmaCol(i)] = pk.SigmaPolys[i]
	}
	{
		instCoeffs := parallel.Map(cs.NumInstance, func(i int) []ff.Element {
			return ifft(a.Instance[i])
		})
		for i := 0; i < cs.NumInstance; i++ {
			register(InstanceCol(i), a.Instance[i], instCoeffs[i])
		}
	}

	// Advice phases: blind on this goroutine, IFFT all of the phase's
	// columns in parallel, then commit them side by side.
	var challenges []ff.Element
	proof.AdviceCommits = make([]curve.Affine, cs.NumAdvice)
	maxPhase := cs.maxPhase()
	for phase := 0; phase <= maxPhase; phase++ {
		if err := w.Fill(phase, challenges, a); err != nil {
			return nil, fmt.Errorf("plonkish: witness fill phase %d: %w", phase, err)
		}
		var cols []int
		for i := 0; i < cs.NumAdvice; i++ {
			if cs.phase(i) == phase {
				cols = append(cols, i)
			}
		}
		for _, i := range cols {
			for r := u; r < n; r++ {
				a.Advice[i][r] = ff.RandomFrom(rng) // blinding rows
			}
		}
		adviceCoeffs := parallel.Map(len(cols), func(idx int) []ff.Element {
			return ifft(a.Advice[cols[idx]])
		})
		vals := make([][]ff.Element, len(cols))
		for idx, i := range cols {
			register(AdviceCol(i), a.Advice[i], adviceCoeffs[idx])
			vals[idx] = a.Advice[i]
		}
		for idx, cm := range commit(vals, "advice") {
			proof.AdviceCommits[cols[idx]] = cm
		}
		if phase == 0 && maxPhase > 0 {
			challenges = make([]ff.Element, cs.NumChallenges)
			for i := range challenges {
				challenges[i] = tr.Challenge("phase")
			}
		}
	}

	trace.Stage(obs.StageLookup)
	var arg [3]ff.Element
	arg[Theta] = tr.Challenge("theta")

	// Lookup multiplicities: evaluate every lookup's selector and inputs in
	// one pass of the lookup program over the usable rows (one evaluator per
	// worker chunk), compressing the inputs only on the rows the lookup
	// selects; compress and index each distinct table once, however many
	// lookups read it; then count each lookup's multiplicities in parallel
	// across lookups, and commit them side by side.
	type tableData struct {
		cols []Col
		t    []ff.Element // compressed, on the table's rows; then (β+t)⁻¹ on the usable ones
		idx  map[[32]byte]int
	}
	type lookupData struct {
		sel, f []ff.Element // selector, and compressed input where it is nonzero, on the usable rows
		rows   []int        // the rows whose selector is nonzero, ascending
		table  *tableData
		m      []ff.Element
		mCoeff []ff.Element
		err    error
	}
	lookups := make([]lookupData, len(cs.Lookups))
	var tables []*tableData
	tableOf := map[string]*tableData{}
	maxInputs := 0
	for k, l := range cs.Lookups {
		m := make([]ff.Element, n)
		for r := u; r < n; r++ {
			m[r] = ff.RandomFrom(rng)
		}
		key := fmt.Sprint(l.Table, l.TableLen)
		tbl, ok := tableOf[key]
		if !ok {
			tbl = &tableData{cols: l.Table, t: make([]ff.Element, l.TableLen)}
			tableOf[key] = tbl
			tables = append(tables, tbl)
		}
		lookups[k] = lookupData{f: make([]ff.Element, u), sel: make([]ff.Element, u), table: tbl, m: m}
		maxInputs = max(maxInputs, len(l.Inputs))
	}
	omega := pk.Domain.Elements()
	lookupCols := a.bind(pk.LookupInputs)
	parallel.Range(u, func(lo, hi int) {
		ev := pk.LookupInputs.newEvaluator(lookupCols, n-1, challenges, &arg)
		defer ev.release()
		in := make([][ff.BlockRows]ff.Element, maxInputs)
		vals := make([]ff.Element, maxInputs)
		for r := lo; r < hi; r += ff.BlockRows {
			rows := min(ff.BlockRows, hi-r)
			ev.run(r, rows, omega[r:r+rows])
			o := 0
			for k, l := range cs.Lookups {
				sel := lookups[k].sel[r : r+rows]
				ev.out(o, sel)
				stored := false
				for q := range sel {
					if sel[q].IsZero() {
						continue
					}
					if !stored {
						for i := range l.Inputs {
							ev.out(o+1+i, in[i][:rows])
						}
						stored = true
					}
					for i := range l.Inputs {
						vals[i] = in[i][q]
					}
					lookups[k].f[r+q] = compressRow(&arg[Theta], vals[:len(l.Inputs)])
				}
				o += 1 + len(l.Inputs)
			}
		}
	})
	parallel.For(len(tables), func(k int) {
		tbl := tables[k]
		parallel.Range(len(tbl.t), func(lo, hi int) {
			vals := make([]ff.Element, len(tbl.cols))
			for r := lo; r < hi; r++ {
				for i, c := range tbl.cols {
					vals[i] = a.Get(c, r)
				}
				tbl.t[r] = compressRow(&arg[Theta], vals)
			}
		})
		tbl.idx = make(map[[32]byte]int, len(tbl.t))
		for r := range tbl.t {
			key := tbl.t[r].Bytes()
			if _, dup := tbl.idx[key]; !dup {
				tbl.idx[key] = r
			}
		}
	})
	parallel.For(len(cs.Lookups), func(k int) {
		ld := &lookups[k]
		one := ff.One()
		for r := 0; r < u; r++ {
			if ld.sel[r].IsZero() {
				continue
			}
			ti, ok := ld.table.idx[ld.f[r].Bytes()]
			if !ok {
				ld.err = fmt.Errorf("plonkish: lookup %q: input at row %d not in table", cs.Lookups[k].Name, r)
				return
			}
			ld.rows = append(ld.rows, r)
			ld.m[ti].Add(&ld.m[ti], &one)
		}
		ld.mCoeff = ifft(ld.m)
	})
	ms := make([][]ff.Element, len(lookups))
	for k := range lookups {
		if err := lookups[k].err; err != nil {
			return nil, err
		}
		register(mCol(k), lookups[k].m, lookups[k].mCoeff)
		ms[k] = lookups[k].m
	}
	proof.MCommits = commit(ms, "lookup-m")

	arg[Beta] = tr.Challenge("beta")
	arg[Gamma] = tr.Challenge("gamma")

	// Lookup accumulators phi: the inverse terms parallelize (a batch
	// inversion of a subrange is still a batch inversion); the prefix sum
	// itself is cheap and stays serial per lookup. A table's terms 1/(β+t)
	// are inverted once for every lookup that reads it, on the usable rows
	// below TableLen: past it t is zero and so is m. A lookup's 1/(β+f) are
	// inverted on its selected rows only, packed into the front of f; an
	// unselected row adds only its table term. Once phi is built f, t and
	// sel are dropped: they are a lookup stage's largest buffers, and
	// nothing after it reads them.
	phis := make([][]ff.Element, len(cs.Lookups))
	phiCoeffs := make([][]ff.Element, len(cs.Lookups))
	phiErrs := make([]error, len(cs.Lookups))
	for k := range phis {
		phi := make([]ff.Element, n)
		for r := u + 1; r < n; r++ {
			phi[r] = ff.RandomFrom(rng)
		}
		phis[k] = phi
	}
	parallel.For(len(tables), func(k int) {
		invT := tables[k].t[:min(len(tables[k].t), u)]
		parallel.Range(len(invT), func(lo, hi int) {
			for r := lo; r < hi; r++ {
				invT[r].Add(&arg[Beta], &invT[r])
			}
			ff.BatchInverse(invT[lo:hi])
		})
	})
	parallel.For(len(cs.Lookups), func(k int) {
		ld := &lookups[k]
		invF, invT := ld.f[:len(ld.rows)], ld.table.t[:min(len(ld.table.t), u)]
		for j, r := range ld.rows {
			invF[j].Add(&arg[Beta], &ld.f[r])
		}
		parallel.Range(len(invF), func(lo, hi int) {
			ff.BatchInverse(invF[lo:hi])
		})
		phi := phis[k]
		j := 0
		for r := 0; r < u; r++ {
			var term ff.Element
			if j < len(ld.rows) && ld.rows[j] == r {
				term.Mul(&ld.sel[r], &invF[j])
				j++
			}
			if r < len(invT) {
				var t2 ff.Element
				t2.Mul(&ld.m[r], &invT[r])
				term.Sub(&term, &t2)
			}
			phi[r+1].Add(&phi[r], &term)
		}
		if !phi[u].IsZero() {
			phiErrs[k] = fmt.Errorf("plonkish: lookup %d accumulator does not close (witness bug)", k)
			return
		}
		phiCoeffs[k] = ifft(phi)
		ld.f, ld.sel, ld.rows = nil, nil, nil
	})
	for _, tbl := range tables {
		tbl.t, tbl.idx = nil, nil
	}
	for k := range cs.Lookups {
		if phiErrs[k] != nil {
			return nil, phiErrs[k]
		}
		register(phiCol(k), phis[k], phiCoeffs[k])
	}
	proof.PhiCommits = commit(phis, "lookup-phi")

	// Permutation grand products: the num/den row loops of every chunk run
	// in parallel; the carry-linked z prefix walks stay serial in chunk
	// order (they are O(u) multiplications); the z columns then interpolate
	// and commit side by side.
	trace.Stage(obs.StagePerm)
	if numChunks := cs.numZ(); numChunks > 0 {
		permCols := cs.PermCols()
		chunk := cs.PermChunk()
		delta := ff.MultiplicativeGen()
		dp := make([]ff.Element, len(permCols))
		acc := ff.One()
		for i := range dp {
			dp[i] = acc
			acc.Mul(&acc, &delta)
		}
		ratios := parallel.Map(numChunks, func(j int) []ff.Element {
			lo := j * chunk
			hi := lo + chunk
			if hi > len(permCols) {
				hi = len(permCols)
			}
			num := make([]ff.Element, u)
			den := make([]ff.Element, u)
			parallel.Range(u, func(rlo, rhi int) {
				for r := rlo; r < rhi; r++ {
					num[r] = ff.One()
					den[r] = ff.One()
					for i := lo; i < hi; i++ {
						v := a.Get(permCols[i], r)
						var idT, sgT, t ff.Element
						t.Mul(&dp[i], &omega[r])
						idT.Mul(&arg[Beta], &t)
						idT.Add(&idT, &v)
						idT.Add(&idT, &arg[Gamma])
						num[r].Mul(&num[r], &idT)
						sgT.Mul(&arg[Beta], &pk.SigmaVals[i][r])
						sgT.Add(&sgT, &v)
						sgT.Add(&sgT, &arg[Gamma])
						den[r].Mul(&den[r], &sgT)
					}
				}
				ff.BatchInverse(den[rlo:rhi])
				for r := rlo; r < rhi; r++ {
					num[r].Mul(&num[r], &den[r])
				}
			})
			return num
		})
		zs := make([][]ff.Element, numChunks)
		carry := ff.One()
		for j := range zs {
			z := make([]ff.Element, n)
			z[0] = carry
			for r := 0; r < u; r++ {
				z[r+1].Mul(&z[r], &ratios[j][r])
			}
			carry = z[u]
			for r := u + 1; r < n; r++ {
				z[r] = ff.RandomFrom(rng)
			}
			zs[j] = z
		}
		if !carry.IsOne() {
			return nil, fmt.Errorf("plonkish: permutation product != 1 (copy constraint violated)")
		}
		zCoeffs := parallel.Map(numChunks, func(j int) []ff.Element { return ifft(zs[j]) })
		for j := range zs {
			register(zCol(j), zs[j], zCoeffs[j])
		}
		proof.ZCommits = commit(zs, "perm-z")
	}

	return &committed{tr: tr, proof: proof, lag: lag, coeff: coeff, challenges: challenges, arg: arg}, nil
}

// quotient returns the pieces t_0, …, t_{p−1} of the quotient t = C/Z_H,
// where C is the y-combined constraint polynomial and p =
// QuotientPieces(d_max): t = Σ_i X^{i·n}·t_i, each t_i of degree below n.
//
// It first checks that C vanishes on H, evaluating the constraints over the
// columns' values there (no transform). Then it takes p size-n parts of the
// extended coset, one at a time (poly.Domain.CosetPartFFT): part j needs
// every queried column at the points c_j·ω^i, c_j = g·ω_ext^j. The key
// holds its fixed and sigma columns there already (ProvingKey.CosetParts);
// each of the proof's own columns (instance, advice, m, phi, z) takes one
// size-n transform into a buffer that the next part reuses. It runs the
// quotient program over the n rows (rotations are offsets into those
// values) and divides by Z_H(c_j), and one CosetPartIFFT gives the
// coefficients of P_j = Σ_i a_j^i·t_i, a_j = c_j^n — on part j, X^n is the
// constant a_j. The a_j are distinct (ω_ext^n has order ExtN/n ≥ p), so
// each coefficient of the t_i follows from the P_j by the inverse of the
// Vandermonde matrix of the a_j.
//
// This is exact: C − t·Z_H has degree below d_max·n = (p+1)·n and vanishes
// on the p·n part points, so it is zero if and only if C also vanishes on
// the n points of H — the check that comes first.
func quotient(pk *ProvingKey, st *committed, y *ff.Element) ([][]ff.Element, error) {
	n, prog := pk.N, pk.Quotient
	scale := pk.ExtDomain.N / n
	numPieces := QuotientPieces(pk.DMax)

	queried, slot := prog.columns()
	var own []int                                // slots of the proof's own columns
	coeffs := make([][]ff.Element, len(queried)) // their coefficients, by slot
	for s, c := range queried {
		if _, inKey := pk.CosetParts[c]; inKey {
			continue
		}
		var assigned bool
		if coeffs[s], assigned = st.coeff[c]; !assigned {
			return nil, fmt.Errorf("plonkish: constraint references unassigned column %v/%d", c.Kind, c.Index)
		}
		own = append(own, s)
	}
	if !satisfiedOnDomain(pk, st, queried, slot, y) {
		return nil, fmt.Errorf("plonkish: constraint system unsatisfied (constraints do not vanish on the domain)")
	}

	// Each column's values on the current part: the key's own for fixed and
	// sigma columns, a buffer that every part reuses for the rest.
	vals := make([][]ff.Element, len(queried))
	for _, s := range own {
		vals[s] = make([]ff.Element, n)
	}
	bind := make([][]ff.Element, len(prog.vars))

	// X over the extended coset: the domain's shared read-only table. Z_H
	// is constant on each part: (c_j·ω^i)^n = c_j^n = a_j.
	xs := pk.ExtDomain.CosetElements()
	a := make([]ff.Element, numPieces)
	zhInv := make([]ff.Element, numPieces)
	one := ff.One()
	for j := range a {
		a[j].ExpUint64(&xs[j], uint64(n))
		zhInv[j].Sub(&a[j], &one)
	}
	ff.BatchInverse(zhInv)

	parts := make([][]ff.Element, numPieces)
	for j := range parts {
		parallel.For(len(own), func(o int) {
			s := own[o]
			clear(vals[s][copy(vals[s], coeffs[s]):])
			pk.ExtDomain.CosetPartFFT(vals[s], j)
		})
		for s, c := range queried {
			if key, inKey := pk.CosetParts[c]; inKey {
				vals[s] = key[j]
			}
		}
		for i, s := range slot {
			bind[i] = vals[s]
		}
		part := make([]ff.Element, n)
		parallel.Range(n, func(lo, hi int) {
			ev := prog.newEvaluator(bind, n-1, st.challenges, &st.arg)
			defer ev.release()
			var x [ff.BlockRows]ff.Element
			for i := lo; i < hi; i += ff.BlockRows {
				rows := min(ff.BlockRows, hi-i)
				for r := range rows {
					x[r] = xs[j+scale*(i+r)]
				}
				ev.run(i, rows, x[:rows])
				ev.combine(y, part[i:i+rows])
				for r := i; r < i+rows; r++ {
					part[r].Mul(&part[r], &zhInv[j])
				}
			}
		})
		pk.ExtDomain.CosetPartIFFT(part, j)
		parts[j] = part
	}
	if numPieces == 1 {
		return parts, nil
	}

	// Coefficient k of the P_j is the polynomial Σ_i t_i[k]·Y^i at Y = a_j;
	// interpolate it back, in place, one k at a time.
	w := interpolationMatrix(a)
	parallel.Range(n, func(lo, hi int) {
		p := make([]ff.Element, numPieces)
		for k := lo; k < hi; k++ {
			for j := range p {
				p[j] = parts[j][k]
			}
			for i := range parts {
				var acc, t ff.Element
				for j := range p {
					t.Mul(&w[i][j], &p[j])
					acc.Add(&acc, &t)
				}
				parts[i][k] = acc
			}
		}
	})
	return parts, nil
}

// satisfiedOnDomain reports whether the y-combined constraints vanish on
// every row of H, evaluating the quotient program over the queried
// columns' values there with X = ω^i: the condition under which C is
// divisible by Z_H.
func satisfiedOnDomain(pk *ProvingKey, st *committed, queried []Col, slot []int, y *ff.Element) bool {
	n, prog := pk.N, pk.Quotient
	bind := make([][]ff.Element, len(prog.vars))
	for i, s := range slot {
		bind[i] = st.lag[queried[s]]
	}
	omega := pk.Domain.Elements()
	var bad atomic.Bool
	parallel.Range(n, func(lo, hi int) {
		ev := prog.newEvaluator(bind, n-1, st.challenges, &st.arg)
		defer ev.release()
		var acc [ff.BlockRows]ff.Element
		for i := lo; i < hi && !bad.Load(); i += ff.BlockRows {
			rows := min(ff.BlockRows, hi-i)
			ev.run(i, rows, omega[i:i+rows])
			ev.combine(y, acc[:rows])
			for r := range rows {
				if !acc[r].IsZero() {
					bad.Store(true)
				}
			}
		}
	})
	return !bad.Load()
}

// interpolationMatrix returns the inverse W of the Vandermonde matrix
// V[j][i] = a_j^i: W[i][j] is the coefficient of Y^i in the Lagrange
// polynomial Π_{m≠j} (Y − a_m)/(a_j − a_m), so Σ_j W[i][j]·f(a_j) is
// coefficient i of the polynomial of degree below len(a) through the points
// (a_j, f(a_j)). The a_j must be distinct.
func interpolationMatrix(a []ff.Element) [][]ff.Element {
	w := make([][]ff.Element, len(a))
	for i := range w {
		w[i] = make([]ff.Element, len(a))
	}
	for j := range a {
		num := []ff.Element{ff.One()} // Π_{m≠j} (Y − a_m), lowest degree first
		den := ff.One()
		for m := range a {
			if m == j {
				continue
			}
			next := make([]ff.Element, len(num)+1)
			for d := range num {
				var t ff.Element
				t.Mul(&num[d], &a[m])
				next[d].Sub(&next[d], &t)
				next[d+1].Add(&next[d+1], &num[d])
			}
			num = next
			var diff ff.Element
			diff.Sub(&a[j], &a[m])
			den.Mul(&den, &diff)
		}
		den.Inverse(&den)
		for i := range num {
			w[i][j].Mul(&num[i], &den)
		}
	}
	return w
}

// compressRow folds one row's table cells or input values with powers of
// theta: vals[0] + θ·vals[1] + θ²·vals[2] + … Empty lookups are rejected at
// constraint-build time (CS.Validate), but guard anyway rather than indexing
// vals[-1].
func compressRow(theta *ff.Element, vals []ff.Element) ff.Element {
	if len(vals) == 0 {
		return ff.Zero()
	}
	acc := vals[len(vals)-1]
	for i := len(vals) - 2; i >= 0; i-- {
		acc.Mul(&acc, theta)
		acc.Add(&acc, &vals[i])
	}
	return acc
}

// distinctRots returns the sorted distinct rotations among the queries.
func distinctRots(qs []Query) []int {
	seen := map[int]bool{0: true} // quotient pieces always open at rot 0
	for _, q := range qs {
		seen[q.Rot] = true
	}
	out := make([]int, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}
