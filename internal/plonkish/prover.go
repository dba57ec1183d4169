package plonkish

import (
	"fmt"
	"io"
	"sort"

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
// Freivalds-checked layers).
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
// U values; missing tail values are zero).
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
	trace.Stage(obs.StageCommit)

	cs := pk.CS
	n, u := pk.N, pk.U
	if len(instance) != cs.NumInstance {
		return nil, fmt.Errorf("plonkish: got %d instance columns, want %d", len(instance), cs.NumInstance)
	}

	a := NewAssignment(cs, n)
	for i := 0; i < cs.NumFixed; i++ {
		copy(a.Fixed[i], pk.FixedVals[i])
	}
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
		if coeffs == nil {
			coeffs = ifft(vals)
		}
		coeff[c] = coeffs
	}
	commitCol := func(c Col, label string) curve.Affine {
		cm := commitColumn(pk.Scheme, lag[c], coeff[c])
		tr.AppendPoint(label, cm)
		return cm
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
	// columns in parallel, then commit in column order.
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
		for idx, i := range cols {
			register(AdviceCol(i), a.Advice[i], adviceCoeffs[idx])
			proof.AdviceCommits[i] = commitCol(AdviceCol(i), "advice")
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
	// one pass of the lookup program over the usable rows (one register file
	// per worker chunk), then compress each lookup's table and count its
	// multiplicities in parallel across lookups, and commit in lookup order.
	type lookupData struct {
		f, t, sel []ff.Element // compressed input, compressed table, selector
		m         []ff.Element
		mCoeff    []ff.Element
		err       error
	}
	lookups := make([]lookupData, len(cs.Lookups))
	proof.MCommits = make([]curve.Affine, len(cs.Lookups))
	maxInputs := 0
	for k, l := range cs.Lookups {
		m := make([]ff.Element, n)
		for r := u; r < n; r++ {
			m[r] = ff.RandomFrom(rng)
		}
		lookups[k] = lookupData{f: make([]ff.Element, n), sel: make([]ff.Element, n), m: m}
		maxInputs = max(maxInputs, len(l.Inputs))
	}
	omega := pk.Domain.Elements()
	lookupCols := a.bind(pk.LookupInputs)
	parallel.Range(u, func(lo, hi int) {
		mc := pk.LookupInputs.newMachine(lookupCols, n-1, challenges, &arg)
		vals := make([]ff.Element, maxInputs)
		for r := lo; r < hi; r++ {
			mc.run(r, &omega[r])
			o := 0
			for k, l := range cs.Lookups {
				lookups[k].sel[r] = *mc.out(o)
				for i := range l.Inputs {
					vals[i] = *mc.out(o + 1 + i)
				}
				lookups[k].f[r] = compressRow(&arg[Theta], vals[:len(l.Inputs)])
				o += 1 + len(l.Inputs)
			}
		}
	})
	parallel.For(len(cs.Lookups), func(k int) {
		l := cs.Lookups[k]
		ld := &lookups[k]
		ld.t = make([]ff.Element, n)
		parallel.Range(l.TableLen, func(lo, hi int) {
			vals := make([]ff.Element, len(l.Table))
			for r := lo; r < hi; r++ {
				for i, c := range l.Table {
					vals[i] = a.Get(c, r)
				}
				ld.t[r] = compressRow(&arg[Theta], vals)
			}
		})
		tblIdx := make(map[[32]byte]int, l.TableLen)
		for r := 0; r < l.TableLen; r++ {
			key := ld.t[r].Bytes()
			if _, dup := tblIdx[key]; !dup {
				tblIdx[key] = r
			}
		}
		for r := 0; r < u; r++ {
			if ld.sel[r].IsZero() {
				continue
			}
			ti, ok := tblIdx[ld.f[r].Bytes()]
			if !ok {
				ld.err = fmt.Errorf("plonkish: lookup %q: input at row %d not in table", l.Name, r)
				return
			}
			one := ff.One()
			ld.m[ti].Add(&ld.m[ti], &one)
		}
		ld.mCoeff = ifft(ld.m)
	})
	for k := range lookups {
		if err := lookups[k].err; err != nil {
			return nil, err
		}
		register(mCol(k), lookups[k].m, lookups[k].mCoeff)
		proof.MCommits[k] = commitCol(mCol(k), "lookup-m")
	}

	arg[Beta] = tr.Challenge("beta")
	arg[Gamma] = tr.Challenge("gamma")

	// Lookup accumulators phi: the per-row inverse terms parallelize (a
	// batch inversion of a subrange is still a batch inversion); the prefix
	// sum itself is cheap and stays serial per lookup.
	proof.PhiCommits = make([]curve.Affine, len(cs.Lookups))
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
	parallel.For(len(cs.Lookups), func(k int) {
		ld := &lookups[k]
		invF := make([]ff.Element, u)
		invT := make([]ff.Element, u)
		parallel.Range(u, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				invF[r].Add(&arg[Beta], &ld.f[r])
				invT[r].Add(&arg[Beta], &ld.t[r])
			}
			ff.BatchInverse(invF[lo:hi])
			ff.BatchInverse(invT[lo:hi])
		})
		phi := phis[k]
		for r := 0; r < u; r++ {
			var term, t2 ff.Element
			term.Mul(&ld.sel[r], &invF[r])
			t2.Mul(&ld.m[r], &invT[r])
			term.Sub(&term, &t2)
			phi[r+1].Add(&phi[r], &term)
		}
		if !phi[u].IsZero() {
			phiErrs[k] = fmt.Errorf("plonkish: lookup %d accumulator does not close (witness bug)", k)
			return
		}
		phiCoeffs[k] = ifft(phi)
	})
	for k := range cs.Lookups {
		if phiErrs[k] != nil {
			return nil, phiErrs[k]
		}
		register(phiCol(k), phis[k], phiCoeffs[k])
		proof.PhiCommits[k] = commitCol(phiCol(k), "lookup-phi")
	}

	// Permutation grand products: the num/den row loops of every chunk run
	// in parallel; the carry-linked z prefix walks stay serial in chunk
	// order (they are O(u) multiplications).
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
		proof.ZCommits = make([]curve.Affine, numChunks)
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
		carry := ff.One()
		for j := 0; j < numChunks; j++ {
			z := make([]ff.Element, n)
			z[0] = carry
			for r := 0; r < u; r++ {
				z[r+1].Mul(&z[r], &ratios[j][r])
			}
			carry = z[u]
			for r := u + 1; r < n; r++ {
				z[r] = ff.RandomFrom(rng)
			}
			register(zCol(j), z, nil)
			proof.ZCommits[j] = commitCol(zCol(j), "perm-z")
		}
		if !carry.IsOne() {
			return nil, fmt.Errorf("plonkish: permutation product != 1 (copy constraint violated)")
		}
	}

	trace.Stage(obs.StageQuotient)
	trace.RecordProgram(pk.Quotient.Len(), pk.Quotient.Varying())
	y := tr.Challenge("y")

	numerator, err := quotientNumerator(pk, coeff, challenges, &arg, &y)
	if err != nil {
		return nil, err
	}
	pk.ExtDomain.CosetIFFT(numerator)
	extN := len(numerator)

	numPieces := quotientPieces(pk.DMax)
	proof.QuotientCommits = make([]curve.Affine, numPieces)
	pieces := make([][]ff.Element, numPieces)
	for i := 0; i < numPieces; i++ {
		lo := i * n
		hi := lo + n
		if hi > extN {
			hi = extN
		}
		piece := make([]ff.Element, n)
		if lo < extN {
			copy(piece, numerator[lo:hi])
		}
		pieces[i] = piece
		proof.QuotientCommits[i] = pk.Scheme.Commit(piece)
		tr.AppendPoint("quotient", proof.QuotientCommits[i])
	}
	// Sanity: coefficients beyond the committed pieces must vanish, or the
	// witness does not satisfy the constraints.
	for j := numPieces * n; j < extN; j++ {
		if !numerator[j].IsZero() {
			return nil, fmt.Errorf("plonkish: constraint system unsatisfied (quotient overflow)")
		}
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
	proof.Evals = make([]ff.Element, len(pk.Queries))
	parallel.For(len(pk.Queries), func(i int) {
		q := pk.Queries[i]
		proof.Evals[i] = poly.Eval(coeff[q.Col], pointOf(q.Rot))
	})
	tr.AppendScalars("evals", proof.Evals)
	proof.QuotientEvals = make([]ff.Element, numPieces)
	parallel.For(numPieces, func(i int) {
		proof.QuotientEvals[i] = poly.Eval(pieces[i], x)
	})
	tr.AppendScalars("quotient-evals", proof.QuotientEvals)

	v := tr.Challenge("v")

	// Batched openings per rotation group: the v-combined polynomials build
	// in parallel; the openings themselves absorb into the transcript and
	// stay in rotation order.
	rots := distinctRots(pk.Queries)
	combined := parallel.Map(len(rots), func(ri int) []ff.Element {
		rot := rots[ri]
		var comb []ff.Element
		vPow := ff.One()
		addPoly := func(p []ff.Element) {
			comb = poly.AddScaled(comb, vPow, p)
			vPow.Mul(&vPow, &v)
		}
		for _, q := range pk.Queries {
			if q.Rot == rot {
				addPoly(coeff[q.Col])
			}
		}
		if rot == 0 {
			for _, piece := range pieces {
				addPoly(piece)
			}
		}
		return comb
	})
	proof.Openings = make([]*pcs.Opening, 0, len(rots))
	for ri, rot := range rots {
		proof.Openings = append(proof.Openings, pk.Scheme.Open(tr, combined[ri], pointOf(rot)))
	}
	return proof, nil
}

// quotientNumerator evaluates the y-combined constraints divided by Z_H at
// every point of the extended coset, in the ExtDomain's CosetElements order,
// from the coefficient forms of the queried columns. It goes one size-n part
// of the coset at a time (poly.Domain.CosetPartFFT): part j brings every
// queried column to the points g·ω_ext^j·H with one size-n transform into a
// buffer of n elements that the next part reuses, then runs the quotient
// program over the n rows, where rotations are offsets into those buffers.
// Live memory is the queried columns times n plus the extN-element result.
func quotientNumerator(pk *ProvingKey, coeff map[Col][]ff.Element, challenges []ff.Element, arg *[3]ff.Element, y *ff.Element) ([]ff.Element, error) {
	n, prog := pk.N, pk.Quotient
	extN := pk.ExtDomain.N
	scale := extN / n

	queried, slot := prog.columns()
	cols := make([][]ff.Element, len(queried)) // coefficients of each queried column
	bufs := make([][]ff.Element, len(queried)) // and its values on the current part
	for s, c := range queried {
		var assigned bool
		if cols[s], assigned = coeff[c]; !assigned {
			return nil, fmt.Errorf("plonkish: constraint references unassigned column %v/%d", c.Kind, c.Index)
		}
		bufs[s] = make([]ff.Element, n)
	}
	bind := make([][]ff.Element, len(prog.vars))
	for i, s := range slot {
		bind[i] = bufs[s]
	}

	// X over the extended coset: the domain's shared read-only table. Z_H
	// is constant on each part: (g·ω_ext^j·ω^i)^n = (g·ω_ext^j)^n.
	xs := pk.ExtDomain.CosetElements()
	zhInv := make([]ff.Element, scale)
	for j := range zhInv {
		zhInv[j] = poly.VanishingEval(n, xs[j])
	}
	ff.BatchInverse(zhInv)

	numerator := make([]ff.Element, extN)
	for j := 0; j < scale; j++ {
		parallel.For(len(cols), func(c int) {
			clear(bufs[c][copy(bufs[c], cols[c]):])
			pk.ExtDomain.CosetPartFFT(bufs[c], j)
		})
		parallel.Range(n, func(lo, hi int) {
			mc := prog.newMachine(bind, n-1, challenges, arg)
			for i := lo; i < hi; i++ {
				e := j + scale*i
				mc.run(i, &xs[e])
				acc := mc.combine(y)
				numerator[e].Mul(&acc, &zhInv[j])
			}
		})
	}
	return numerator, nil
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
