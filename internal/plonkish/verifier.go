package plonkish

import (
	"fmt"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/poly"
	"repro/internal/transcript"
	"repro/internal/zkerrors"
)

// errVerify returns a context-wrapped zkerrors.ErrVerifyFailed.
func errVerify(format string, args ...any) error {
	return fmt.Errorf("plonkish: %s: %w", fmt.Sprintf(format, args...), zkerrors.ErrVerifyFailed)
}

// Verify checks a proof against the verifying key and public instance
// values. It mirrors the prover's transcript exactly, checks the vanishing
// identity at the evaluation challenge, and verifies all batched openings.
//
// The proof and instance are untrusted: structural defects return errors
// wrapping zkerrors.ErrMalformedProof, failed cryptographic checks return
// errors wrapping zkerrors.ErrVerifyFailed, and no input reachable from
// attacker bytes panics. Only vk is trusted.
func Verify(vk *VerifyingKey, instance [][]ff.Element, proof *Proof) error {
	if proof == nil {
		return errMalformed("nil proof")
	}
	cs := vk.CS
	n, u := vk.N, vk.U
	if len(instance) != cs.NumInstance {
		return errMalformed("got %d instance columns, want %d", len(instance), cs.NumInstance)
	}
	for i, col := range instance {
		if len(col) > u {
			return errMalformed("instance column %d too long", i)
		}
	}
	if len(proof.AdviceCommits) != cs.NumAdvice ||
		len(proof.MCommits) != len(cs.Lookups) ||
		len(proof.PhiCommits) != len(cs.Lookups) ||
		len(proof.Evals) != len(vk.Queries) {
		return errMalformed("proof shape mismatch")
	}
	if len(proof.ZCommits) != cs.numZ() {
		return errMalformed("proof permutation shape mismatch")
	}
	numPieces := QuotientPieces(vk.DMax)
	if len(proof.QuotientCommits) != numPieces || len(proof.QuotientEvals) != numPieces {
		return errMalformed("proof quotient shape mismatch")
	}
	// Reject nil openings before any dereference; a hand-built Proof (or a
	// future wire format) may carry them even though UnmarshalBinary never
	// produces one.
	for i, o := range proof.Openings {
		if o == nil {
			return errMalformed("nil opening %d", i)
		}
	}

	tr := transcript.New("zkml-plonkish")
	tr.AppendBytes("vk", vk.Digest())
	for _, col := range instance {
		tr.AppendScalars("instance", col)
	}

	// Mirror advice commitments phase by phase.
	var challenges []ff.Element
	maxPhase := cs.maxPhase()
	for phase := 0; phase <= maxPhase; phase++ {
		for i := 0; i < cs.NumAdvice; i++ {
			if cs.phase(i) == phase {
				tr.AppendPoint("advice", proof.AdviceCommits[i])
			}
		}
		if phase == 0 && maxPhase > 0 {
			challenges = make([]ff.Element, cs.NumChallenges)
			for i := range challenges {
				challenges[i] = tr.Challenge("phase")
			}
		}
	}

	var arg [3]ff.Element
	arg[Theta] = tr.Challenge("theta")
	for k := range cs.Lookups {
		tr.AppendPoint("lookup-m", proof.MCommits[k])
	}
	arg[Beta] = tr.Challenge("beta")
	arg[Gamma] = tr.Challenge("gamma")
	for k := range cs.Lookups {
		tr.AppendPoint("lookup-phi", proof.PhiCommits[k])
	}
	for _, c := range proof.ZCommits {
		tr.AppendPoint("perm-z", c)
	}
	y := tr.Challenge("y")
	for _, c := range proof.QuotientCommits {
		tr.AppendPoint("quotient", c)
	}
	x := tr.Challenge("x")
	tr.AppendScalars("evals", proof.Evals)
	tr.AppendScalars("quotient-evals", proof.QuotientEvals)
	v := tr.Challenge("v")

	// Instance column evaluations at x, computed directly from the public
	// values (O(#instance values) Lagrange evaluations).
	dom := poly.NewDomain(n)
	instEval := make([]ff.Element, cs.NumInstance)
	for i, col := range instance {
		var acc ff.Element
		for r, val := range col {
			if val.IsZero() {
				continue
			}
			l := dom.LagrangeEval(r, x)
			var t ff.Element
			t.Mul(&val, &l)
			acc.Add(&acc, &t)
		}
		instEval[i] = acc
	}

	// Constraint identity at x: the quotient program over one point, every
	// queried cell bound to its opened evaluation (instance cells to their
	// public evaluation).
	evalIdx := map[Query]int{}
	for i, q := range vk.Queries {
		evalIdx[q] = i
	}
	cells := make([][]ff.Element, len(vk.Quotient.vars))
	for s, q := range vk.Quotient.vars {
		if q.Col.Kind == Instance {
			if q.Col.Index < 0 || q.Col.Index >= len(instEval) {
				return errMalformed("constraint references instance column %d of %d", q.Col.Index, len(instEval))
			}
			cells[s] = instEval[q.Col.Index : q.Col.Index+1]
			continue
		}
		i, ok := evalIdx[q]
		if !ok {
			return errMalformed("constraint references unopened query %v/%d rot %d", q.Col.Kind, q.Col.Index, q.Rot)
		}
		cells[s] = proof.Evals[i : i+1]
	}
	ev := vk.Quotient.newEvaluator(cells, 0, challenges, &arg)
	var lhs [1]ff.Element
	ev.run(0, 1, []ff.Element{x})
	ev.combine(&y, lhs[:])
	ev.release()
	// t(x) = sum x^(n·i) · piece_i(x).
	var tEval, xn ff.Element
	xn.ExpUint64(&x, uint64(n))
	for i := numPieces - 1; i >= 0; i-- {
		tEval.Mul(&tEval, &xn)
		tEval.Add(&tEval, &proof.QuotientEvals[i])
	}
	zh := poly.VanishingEval(n, x)
	var rhs ff.Element
	rhs.Mul(&zh, &tEval)
	if !lhs[0].Equal(&rhs) {
		return errVerify("vanishing identity check failed")
	}

	// Batched opening verification per rotation group.
	commitmentOf := func(c Col) (curve.Affine, error) {
		var pool []curve.Affine
		switch c.Kind {
		case Fixed:
			pool = vk.FixedCommits
		case Advice:
			pool = proof.AdviceCommits
		case PermSigma:
			pool = vk.SigmaCommits
		case LookupM:
			pool = proof.MCommits
		case LookupPhi:
			pool = proof.PhiCommits
		case PermZ:
			pool = proof.ZCommits
		default:
			return curve.Affine{}, errMalformed("no commitment for column kind %v", c.Kind)
		}
		if c.Index < 0 || c.Index >= len(pool) {
			return curve.Affine{}, errMalformed("%v commitment index %d of %d", c.Kind, c.Index, len(pool))
		}
		return pool[c.Index], nil
	}
	rots := distinctRots(vk.Queries)
	if len(proof.Openings) != len(rots) {
		return errMalformed("proof opening count mismatch")
	}
	for oi, rot := range rots {
		var pts []curve.Affine
		var scs []ff.Element
		var yCombined ff.Element
		vPow := ff.One()
		add := func(cm curve.Affine, ev ff.Element) {
			pts = append(pts, cm)
			scs = append(scs, vPow)
			var t ff.Element
			t.Mul(&vPow, &ev)
			yCombined.Add(&yCombined, &t)
			vPow.Mul(&vPow, &v)
		}
		for qi, q := range vk.Queries {
			if q.Rot != rot {
				continue
			}
			cm, err := commitmentOf(q.Col)
			if err != nil {
				return err
			}
			add(cm, proof.Evals[qi])
		}
		if rot == 0 {
			for i := range proof.QuotientCommits {
				add(proof.QuotientCommits[i], proof.QuotientEvals[i])
			}
		}
		combined := curve.MSM(pts, scs).ToAffine()
		point := dom.Element(rot)
		point.Mul(&point, &x)
		if err := vk.Scheme.Verify(tr, combined, point, yCombined, proof.Openings[oi]); err != nil {
			return fmt.Errorf("plonkish: opening at rotation %d: %w", rot, err)
		}
	}
	return nil
}
