package gadgets

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/ff"
	"repro/internal/pcs"
	"repro/internal/plonkish"
)

// freivaldsProduct lays out an m×k by k×n product of small signed
// witnesses through FreivaldsMatMul and returns A, W, C and the int64
// product A·W.
func freivaldsProduct(b *Builder, m, k, n int) (a, w, c [][]*Value, want [][]int64) {
	mat := func(rows, cols int, f func(i, j int) int64) [][]*Value {
		out := make([][]*Value, rows)
		for i := range out {
			out[i] = make([]*Value, cols)
			for j := range out[i] {
				out[i][j] = b.Witness(f(i, j))
			}
		}
		return out
	}
	a = mat(m, k, func(i, j int) int64 { return int64((i*7+j*3)%11 - 5) })
	w = mat(k, n, func(i, j int) int64 { return int64((i*5+j*2)%9 - 4) })
	want = make([][]int64, m)
	for i := range want {
		want[i] = make([]int64, n)
		for j := range want[i] {
			for l := 0; l < k; l++ {
				want[i][j] += a[i][l].v * w[l][j].v
			}
		}
	}
	return a, w, b.FreivaldsMatMul(a, w), want
}

func TestFreivaldsMatMulProveVerify(t *testing.T) {
	b := NewBuilder(testCfg())
	_, _, c, want := freivaldsProduct(b, 4, 3, 5)
	for i := range want {
		for j := range want[i] {
			if c[i][j].Int64() != want[i][j] {
				t.Fatalf("C[%d][%d] = %d, want %d", i, j, c[i][j].Int64(), want[i][j])
			}
		}
	}
	b.MakePublic(c[0][0])
	if rows := b.Rows(); rows != 3+2*4 {
		t.Fatalf("%d rows, want K + 2M = 11", rows)
	}
	art := checkRows(t, b)
	for _, backend := range []pcs.Backend{pcs.KZG, pcs.IPA} {
		pk, vk, err := plonkish.Setup(art.CS, art.N, art.Fixed, backend)
		if err != nil {
			t.Fatal(err)
		}
		proof, err := plonkish.Prove(pk, art.Instance, art.Witness)
		if err != nil {
			t.Fatal(err)
		}
		if err := plonkish.Verify(vk, art.Instance, proof); err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
	}
}

// TestFreivaldsRejectsWrongProduct corrupts one cell of C and recomputes
// its row's fold v honestly for the corrupted row, so the fv_fold gate
// holds. Then either u stays honest, leaving the copy u_i = v_i to catch
// it, or the cheat also sets an unused a_l to 1 and picks its phase-1
// partner t_l after seeing r so that u_i = v_i and the fv_dot gate holds,
// leaving the copy of a_l to the committed zero to catch it.
func TestFreivaldsRejectsWrongProduct(t *testing.T) {
	for _, padding := range []bool{false, true} {
		b := NewBuilder(testCfg())
		a, _, c, _ := freivaldsProduct(b, 3, 3, 3)
		art, err := b.Finalize(b.MinN())
		if err != nil {
			t.Fatal(err)
		}
		nc, k := b.cfg.NumCols, 3
		bad, dotRow := c[1][1].cell, a[1][0].cell.Row
		cheat := plonkish.WitnessFunc(func(phase int, ch []ff.Element, as *plonkish.Assignment) error {
			if err := art.Witness.Fill(phase, ch, as); err != nil {
				return err
			}
			if phase == 0 {
				as.Set(bad.Col, bad.Row, ff.NewInt64(9999))
				if padding {
					as.Set(plonkish.AdviceCol(k), dotRow, ff.One())
				}
				return nil
			}
			var v ff.Element
			rho := ch[0]
			for j := 0; j < nc; j++ {
				x := as.Get(plonkish.AdviceCol(j), bad.Row)
				x.Mul(&x, &rho)
				v.Add(&v, &x)
				rho.Mul(&rho, &ch[0])
			}
			as.Set(plonkish.AdviceCol(nc), bad.Row, v)
			if padding {
				u := as.Get(plonkish.AdviceCol(2*nc-1), dotRow)
				var tl ff.Element
				tl.Sub(&v, &u)
				as.Set(plonkish.AdviceCol(nc+k), dotRow, tl)
				as.Set(plonkish.AdviceCol(2*nc-1), dotRow, v)
			}
			return nil
		})
		pk, _, err := plonkish.Setup(art.CS, art.N, art.Fixed, pcs.KZG)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plonkish.Prove(pk, art.Instance, cheat); err == nil || !strings.Contains(err.Error(), "permutation") {
			t.Fatalf("padding %v: prover on a wrong product: %v, want a permutation failure", padding, err)
		}
	}
}

// TestFreivaldsMutations adds 1 to one cell of a satisfied product at a
// time — A, W and C in phase 0; t, its copies beside A, u and v in phase 1
// — and requires CheckConstraints to name an fv_fold or fv_dot gate or a
// copy constraint for every one.
func TestFreivaldsMutations(t *testing.T) {
	b := NewBuilder(testCfg())
	a, w, c, _ := freivaldsProduct(b, 4, 3, 5)
	art, err := b.Finalize(b.MinN())
	if err != nil {
		t.Fatal(err)
	}
	as := assign(t, art)
	if err := plonkish.CheckConstraints(art.CS, as, testChallenge); err != nil {
		t.Fatal(err)
	}
	nc := b.cfg.NumCols
	late := func(row, col int) plonkish.Cell { return plonkish.Cell{Col: plonkish.AdviceCol(nc + col), Row: row} }
	var cells []plonkish.Cell
	for _, m := range [][][]*Value{a, w, c} {
		for _, row := range m {
			for _, v := range row {
				cells = append(cells, v.cell)
			}
		}
	}
	for _, row := range w {
		cells = append(cells, late(row[0].cell.Row, 0)) // t_l
	}
	for i, row := range a {
		for l := range row {
			cells = append(cells, late(row[0].cell.Row, l)) // t_l beside A's row
		}
		cells = append(cells, late(row[0].cell.Row, nc-1)) // u_i
		cells = append(cells, late(c[i][0].cell.Row, 0))   // v_i
	}
	named := regexp.MustCompile(`gate "fv_(fold|dot)"|copy constraint`)
	one := ff.One()
	for _, cell := range cells {
		v := as.Get(cell.Col, cell.Row)
		v.Add(&v, &one)
		as.Set(cell.Col, cell.Row, v)
		err := plonkish.CheckConstraints(art.CS, as, testChallenge)
		if err == nil || !named.MatchString(err.Error()) {
			t.Errorf("%v row %d + 1: %v", cell.Col, cell.Row, err)
		}
		v.Sub(&v, &one)
		as.Set(cell.Col, cell.Row, v)
	}
	if len(cells) != 4*3+3*5+4*5+3+4*(3+2) {
		t.Fatalf("mutated %d cells", len(cells))
	}
}

// TestFreivaldsAsymptoticWin measures the rows of a 32×32×32 product at 33
// columns through FreivaldsMatMul (K + 2M) against M·N dot products.
func TestFreivaldsAsymptoticWin(t *testing.T) {
	const m, k, n = 32, 32, 32
	cfg := DefaultConfig(33, testFP())
	fv := NewBuilder(cfg)
	a, w, _, _ := freivaldsProduct(fv, m, k, n)
	naive := NewBuilder(cfg)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			xs, ws := make([]*Value, k), make([]*Value, k)
			for l := range xs {
				xs[l], ws[l] = naive.Witness(a[i][l].v), naive.Witness(w[l][j].v)
			}
			naive.DotRaw(xs, ws, nil, nil)
		}
	}
	if err := fv.Err(); err != nil {
		t.Fatal(err)
	}
	t.Logf("freivalds %d rows, dot products %d rows", fv.Rows(), naive.Rows())
	if fv.Rows() != k+2*m || naive.Rows() < 10*fv.Rows() {
		t.Fatalf("freivalds %d rows, dot products %d: want K + 2M and a 10× win", fv.Rows(), naive.Rows())
	}
}

// TestFreivaldsAuditClean runs the static audit over a builder-made
// product with both witness phases filled: its degree, blinding-row and
// cell passes must cover the phase-1 columns without a finding.
func TestFreivaldsAuditClean(t *testing.T) {
	b := NewBuilder(testCfg())
	_, _, c, _ := freivaldsProduct(b, 4, 3, 5)
	b.MakePublic(c[3][4])
	art := checkRows(t, b)
	as := assign(t, art)
	rep, err := audit.Analyze(audit.Circuit{CS: art.CS, N: art.N, Fixed: art.Fixed, Advice: as.Advice, Instance: art.Instance})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.Summary())
	if rep.Errors() != 0 || rep.Warnings() != 0 {
		t.Fatalf("%s\n%+v", rep.Summary(), rep.Findings)
	}
}

func TestFreivaldsRejectsShapes(t *testing.T) {
	cfg := testCfg() // 8 columns: K ≤ 7, N ≤ 8
	for _, s := range []struct{ m, k, n int }{{2, 8, 3}, {2, 3, 9}, {2, 0, 3}} {
		b := NewBuilder(cfg)
		_, _, c, _ := freivaldsProduct(b, s.m, s.k, s.n)
		if b.Err() == nil || len(c) != s.m {
			t.Fatalf("%d×%d×%d: err %v, %d rows of C", s.m, s.k, s.n, b.Err(), len(c))
		}
	}
}
