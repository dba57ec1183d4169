package plonkish

import (
	"testing"

	"repro/internal/ff"
	"repro/internal/pcs"
)

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

func TestFreivaldsMatMulProveVerify(t *testing.T) {
	f := FreivaldsMatMul{M: 4, K: 3, N: 5}
	a, b := freivaldsMats(f.M, f.K, f.N)
	cs, w, inst, rows, err := f.Build(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rows != f.K+2*f.M {
		t.Fatalf("rows = %d", rows)
	}
	pk, vk, err := Setup(cs, 32, freivaldsFixed(f, 32), pcs.KZG)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := Prove(pk, inst, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(vk, inst, proof); err != nil {
		t.Fatal(err)
	}
}

func TestFreivaldsRejectsWrongProduct(t *testing.T) {
	f := FreivaldsMatMul{M: 3, K: 3, N: 3}
	a, b := freivaldsMats(f.M, f.K, f.N)
	cs, _, inst, _, err := f.Build(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// A cheating witness: same A, B but a corrupted C. The phase-1 folds
	// are computed honestly *for the corrupted C*; the u == v copy
	// constraint must then fail with overwhelming probability.
	_, honestW, _, _, _ := f.Build(a, b)
	cheat := WitnessFunc(func(phase int, chs []ff.Element, as *Assignment) error {
		if err := honestW.Fill(phase, chs, as); err != nil {
			return err
		}
		if phase == 0 {
			// Corrupt C[1][1] (stored at row K+M+1, col 1).
			as.Set(AdviceCol(1), f.K+f.M+1, ff.NewInt64(9999))
		} else {
			// Recompute v_1 for the corrupted row so the fv-v gate
			// holds; the mismatch must be caught by u==v.
			r := make([]ff.Element, f.N)
			acc := chs[0]
			for j := range r {
				r[j] = acc
				acc.Mul(&acc, &chs[0])
			}
			var v ff.Element
			for j := 0; j < f.N; j++ {
				cv := as.Get(AdviceCol(j), f.K+f.M+1)
				var term ff.Element
				term.Mul(&cv, &r[j])
				v.Add(&v, &term)
			}
			width := f.K
			if f.N > width {
				width = f.N
			}
			as.Set(AdviceCol(width+f.K), f.K+f.M+1, v)
		}
		return nil
	})
	pk, _, err := Setup(cs, 32, freivaldsFixed(f, 32), pcs.KZG)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Prove(pk, inst, cheat); err == nil {
		t.Fatal("prover accepted a wrong matrix product")
	}
}

func TestFreivaldsAsymptoticWin(t *testing.T) {
	// Freivalds rows grow as O(m + k) per product vs O(m·n·k/width) for
	// in-circuit multiplication.
	f := FreivaldsMatMul{M: 32, K: 32, N: 32}
	freivaldsRows := f.K + 2*f.M
	naive := NaiveMatMulRows(f.M, f.K, f.N, 15)
	if naive < 10*freivaldsRows {
		t.Fatalf("expected order-of-magnitude win: naive %d vs freivalds %d", naive, freivaldsRows)
	}
}
