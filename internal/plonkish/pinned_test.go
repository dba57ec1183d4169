package plonkish

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/ff"
	"repro/internal/pcs"
)

// TestSeededProofsPinned pins the wire: with seeded blinding the proof bytes
// are a pure function of the circuit, the witness and the prover, so their
// digests are recorded constants. A change that is meant to be invisible on
// the wire — a faster evaluator, a different schedule, a new kernel — must
// leave every digest here as it is; a change that moves one changes the
// proof format and must say so (a new wire version and fresh goldens).
//
// The cases cover the user gate, lookup and permutation constraints of the
// test circuit on both backends (KZG at 2048 rows, where the NTTs and commit
// tables take their parallel paths), and a Freivalds product whose phase-1
// gates read a squeezed ChallengeExpr and whose copy constraints bring in
// the permutation's X terms.
func TestSeededProofsPinned(t *testing.T) {
	cases := []struct {
		name    string
		backend pcs.Backend
		n       int
		want    string
	}{
		{"testCircuit/kzg", pcs.KZG, 2048, "437ae02b58f2520312a43981724b2a9cbf8984ff57a8a2514310c873827fba70"},
		{"testCircuit/ipa", pcs.IPA, 256, "f603f407d5ae6fc758b1365186752b82ec789b418ed2489026c53b74e7cf5465"},
		{"freivalds/kzg", pcs.KZG, 32, "8da41f915bed555e594c6fbdeaf520649ff954d17f11bba1c92c92c49a5a2d99"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cs, fixed, inst, w := testCircuit(), testFixed(c.n), testInstance(24), testWitness(false, false, false)
			if c.name == "freivalds/kzg" {
				f := FreivaldsMatMul{M: 4, K: 3, N: 5}
				var err error
				if cs, w, inst, err = freivaldsCase(f); err != nil {
					t.Fatal(err)
				}
				fixed = freivaldsFixed(f, c.n)
			}
			pk, vk, err := Setup(cs, c.n, fixed, c.backend)
			if err != nil {
				t.Fatal(err)
			}
			proof, err := ProveWithRand(pk, inst, w, &ctrReader{seed: sha256.Sum256([]byte("pinned-" + c.name))})
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(vk, inst, proof); err != nil {
				t.Fatal(err)
			}
			b, err := proof.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if got := sha256.Sum256(b); hex.EncodeToString(got[:]) != c.want {
				t.Fatalf("proof digest %x, pinned %s: the proof bytes changed", got, c.want)
			}
		})
	}
}

// freivaldsCase builds the Freivalds circuit, witness and instance for f
// from the fixed test matrices.
func freivaldsCase(f FreivaldsMatMul) (*CS, Witness, [][]ff.Element, error) {
	a, b := freivaldsMats(f.M, f.K, f.N)
	cs, w, inst, _, err := f.Build(a, b)
	return cs, w, inst, err
}

// The Freivalds fixture below is a hand-assigned two-phase circuit: the
// prover supplies C = A·B as phase-0 witness and phase-1 cells fold it
// against r_j = challenge^(j+1), so the pinned digest covers the prover's
// phase-1 path. Builder.FreivaldsMatMul in internal/gadgets is the
// product circuits use.

// FreivaldsMatMul describes one Freivalds-verified product C = A·B with
// A: m x k and B: k x n.
type FreivaldsMatMul struct {
	M, K, N int
}

// Build lays the argument out as three gated regions plus a copy region
// that re-materializes t next to each A row, and returns the constraint
// system, witness, public instance, and rows used.
//
//	rows [0, K):        selB:  [B[l][0..N) | t_l]
//	rows [K, K+M):      selA:  [A[i][0..K) | t_0..t_{K-1} copies | u_i]
//	rows [K+M, K+2M):   selC:  [C[i][0..N) | v_i]
//
// and the equality v_i == u_i via copy constraints. The matrix cells occupy
// max(N, K) phase-0 columns; the t-copies and the folded output live in
// K + 1 phase-1 columns (they depend on the challenge, so they are
// committed after it is squeezed).
func (f FreivaldsMatMul) Build(a, b [][]int64) (*CS, Witness, [][]ff.Element, int, error) {
	if len(a) != f.M || len(b) != f.K {
		return nil, nil, nil, 0, fmt.Errorf("plonkish: freivalds shape mismatch: A %dx? B %dx?", len(a), len(b))
	}
	width := f.K
	if f.N > width {
		width = f.N
	}
	total := width + f.K + 1
	cs := &CS{
		NumFixed:      3,
		NumAdvice:     total,
		NumInstance:   1,
		AdvicePhase:   make([]int, total),
		NumChallenges: 1,
	}
	for i := width; i < total; i++ {
		cs.AdvicePhase[i] = 1
	}
	selB, selA, selC := V(FixedCol(0)), V(FixedCol(1)), V(FixedCol(2))
	folded := AdviceCol(total - 1)
	ch := ChallengeExpr{Index: 0}
	rPow := func(j int) Expr {
		e := Expr(ch)
		for i := 0; i < j; i++ {
			e = Mul(e, ch)
		}
		return e
	}

	// selB rows: t = sum B[l][j]·r_j.
	termsB := make([]Expr, f.N)
	for j := 0; j < f.N; j++ {
		termsB[j] = Mul(V(AdviceCol(j)), rPow(j))
	}
	cs.AddGate("fv-t", Mul(selB, Sub(V(folded), Sum(termsB...))))
	// selA rows: u = sum A[i][l]·tcopy_l with tcopy at the phase-1
	// columns [width, width+K).
	termsA := make([]Expr, f.K)
	for l := 0; l < f.K; l++ {
		termsA[l] = Mul(V(AdviceCol(l)), V(AdviceCol(width+l)))
	}
	cs.AddGate("fv-u", Mul(selA, Sub(V(folded), Sum(termsA...))))
	// selC rows: v = sum C[i][j]·r_j.
	cs.AddGate("fv-v", Mul(selC, Sub(V(folded), Sum(termsB...))))

	// Copies: t copies in every A row equal the B-row folded cells, and
	// v_i == u_i.
	for i := 0; i < f.M; i++ {
		for l := 0; l < f.K; l++ {
			cs.Copy(Cell{AdviceCol(width + l), f.K + i}, Cell{folded, l})
		}
		cs.Copy(Cell{folded, f.K + i}, Cell{folded, f.K + f.M + i})
	}
	// Expose C[0][0] publicly so tampering is detectable in tests.
	cs.Copy(Cell{AdviceCol(0), f.K + f.M}, Cell{InstanceCol(0), 0})

	// Witness.
	c := make([][]int64, f.M)
	for i := range c {
		c[i] = make([]int64, f.N)
		for j := 0; j < f.N; j++ {
			var acc int64
			for l := 0; l < f.K; l++ {
				acc += a[i][l] * b[l][j]
			}
			c[i][j] = acc
		}
	}
	witness := WitnessFunc(func(phase int, chs []ff.Element, as *Assignment) error {
		if phase == 0 {
			for l := 0; l < f.K; l++ {
				for j := 0; j < f.N; j++ {
					as.Set(AdviceCol(j), l, ff.NewInt64(b[l][j]))
				}
			}
			for i := 0; i < f.M; i++ {
				for l := 0; l < f.K; l++ {
					as.Set(AdviceCol(l), f.K+i, ff.NewInt64(a[i][l]))
				}
				for j := 0; j < f.N; j++ {
					as.Set(AdviceCol(j), f.K+f.M+i, ff.NewInt64(c[i][j]))
				}
			}
			return nil
		}
		// Phase 1: fold with r_j = ch^(j+1).
		r := make([]ff.Element, f.N)
		acc := chs[0]
		for j := range r {
			r[j] = acc
			acc.Mul(&acc, &chs[0])
		}
		t := make([]ff.Element, f.K)
		for l := 0; l < f.K; l++ {
			var sum ff.Element
			for j := 0; j < f.N; j++ {
				var term, bv ff.Element
				bv = ff.NewInt64(b[l][j])
				term.Mul(&bv, &r[j])
				sum.Add(&sum, &term)
			}
			t[l] = sum
			as.Set(AdviceCol(total-1), l, sum)
		}
		for i := 0; i < f.M; i++ {
			var u ff.Element
			for l := 0; l < f.K; l++ {
				var term, av ff.Element
				av = ff.NewInt64(a[i][l])
				term.Mul(&av, &t[l])
				u.Add(&u, &term)
			}
			as.Set(AdviceCol(total-1), f.K+i, u)
			// t copies in the A row (phase-1 columns).
			for l := 0; l < f.K; l++ {
				as.Set(AdviceCol(width+l), f.K+i, t[l])
			}
			var v ff.Element
			for j := 0; j < f.N; j++ {
				var term, cv ff.Element
				cv = ff.NewInt64(c[i][j])
				term.Mul(&cv, &r[j])
				v.Add(&v, &term)
			}
			as.Set(AdviceCol(total-1), f.K+f.M+i, v)
		}
		return nil
	})

	instance := [][]ff.Element{{ff.NewInt64(c[0][0])}}
	rows := f.K + 2*f.M
	return cs, witness, instance, rows, nil
}

func freivaldsMats(m, k, n int) ([][]int64, [][]int64) {
	a := make([][]int64, m)
	for i := range a {
		a[i] = make([]int64, k)
		for j := range a[i] {
			a[i][j] = int64((i*7+j*3)%11 - 5)
		}
	}
	b := make([][]int64, k)
	for i := range b {
		b[i] = make([]int64, n)
		for j := range b[i] {
			b[i][j] = int64((i*5+j*2)%9 - 4)
		}
	}
	return a, b
}

// freivaldsFixed returns f's three selector columns over n rows: selB on
// the K rows of B, selA on the M rows of A after them, selC on the M rows
// of C after those.
func freivaldsFixed(f FreivaldsMatMul, n int) [][]ff.Element {
	fixed := make([][]ff.Element, 3)
	for i := range fixed {
		fixed[i] = make([]ff.Element, n)
	}
	for l := 0; l < f.K; l++ {
		fixed[0][l] = ff.One()
	}
	for i := 0; i < f.M; i++ {
		fixed[1][f.K+i] = ff.One()
		fixed[2][f.K+f.M+i] = ff.One()
	}
	return fixed
}
