package plonkish

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ff"
	"repro/internal/pcs"
	"repro/internal/poly"
)

// referenceQuotient computes the quotient pieces the way the prover did
// before it interpolated them part by part: every queried column on all
// ExtN/N coset parts, the y-combined constraints over the ExtN points of the
// coset divided by Z_H, one size-ExtN coset interpolation, the pieces copied
// out of the coefficients, and the coefficients past them required to
// vanish.
func referenceQuotient(pk *ProvingKey, st *committed, y *ff.Element) ([][]ff.Element, error) {
	n, prog := pk.N, pk.Quotient
	extN := pk.ExtDomain.N
	scale := extN / n

	queried, slot := prog.columns()
	bufs := make([][]ff.Element, len(queried))
	for s := range bufs {
		bufs[s] = make([]ff.Element, n)
	}
	bind := make([][]ff.Element, len(prog.vars))
	for i, s := range slot {
		bind[i] = bufs[s]
	}
	xs := pk.ExtDomain.CosetElements()
	zhInv := make([]ff.Element, scale)
	for j := range zhInv {
		zhInv[j] = poly.VanishingEval(n, xs[j])
	}
	ff.BatchInverse(zhInv)

	numerator := make([]ff.Element, extN)
	for j := 0; j < scale; j++ {
		for s, c := range queried {
			clear(bufs[s][copy(bufs[s], st.coeff[c]):])
			pk.ExtDomain.CosetPartFFT(bufs[s], j)
		}
		ev := prog.newEvaluator(bind, n-1, st.challenges, &st.arg)
		var x, acc [ff.BlockRows]ff.Element
		for i := 0; i < n; i += ff.BlockRows {
			rows := min(ff.BlockRows, n-i)
			for r := range rows {
				x[r] = xs[j+scale*(i+r)]
			}
			ev.run(i, rows, x[:rows])
			ev.combine(y, acc[:rows])
			for r := range rows {
				numerator[j+scale*(i+r)].Mul(&acc[r], &zhInv[j])
			}
		}
		ev.release()
	}
	// Interpolate over g·H: the IFFT yields the coefficients of p(g·X), and
	// coefficient k times g^-k is p's.
	pk.ExtDomain.IFFT(numerator)
	gInvK := ff.One()
	for k := range numerator {
		numerator[k].Mul(&numerator[k], &gInvK)
		gInvK.Mul(&gInvK, &pk.ExtDomain.CosetGenInv)
	}

	pieces := make([][]ff.Element, QuotientPieces(pk.DMax))
	for i := range pieces {
		pieces[i] = make([]ff.Element, n)
		if lo := i * n; lo < extN {
			copy(pieces[i], numerator[lo:min(lo+n, extN)])
		}
	}
	for k := len(pieces) * n; k < extN; k++ {
		if !numerator[k].IsZero() {
			return nil, fmt.Errorf("constraint system unsatisfied (quotient overflow)")
		}
	}
	return pieces, nil
}

// quotientCase is a random satisfied circuit whose constraints have degree
// at most d: a gate sel·(out − in_0·…·in_{d−2}) on the used rows, and —
// where degree d allows them — copies between equal cells, a copy of row 0's
// output to the instance, and a range lookup on in_0 (the permutation
// argument needs d ≥ 3 and the lookup argument d ≥ 4).
type quotientCase struct {
	cs    *CS
	fixed [][]ff.Element
	grid  [][]int64 // [row][advice column]; the output is the last column
	inst  [][]ff.Element
}

func newQuotientCase(rng *rand.Rand, d, n int) *quotientCase {
	numAdvice := d
	out := numAdvice - 1
	cs := &CS{NumFixed: 2, NumAdvice: numAdvice, NumInstance: 1}
	factors := []Expr{}
	for i := 0; i < d-1; i++ {
		factors = append(factors, V(AdviceCol(i)))
	}
	cs.AddGate("product", Mul(V(FixedCol(0)), Sub(V(AdviceCol(out)), Mul(factors...))))
	if d >= 4 {
		cs.AddLookup(Lookup{Name: "range16", Selector: V(FixedCol(0)), Inputs: []Expr{V(AdviceCol(0))},
			Table: []Col{FixedCol(1)}, TableLen: 16})
	}

	rows := 4 + rng.Intn(8)
	grid := make([][]int64, rows)
	for r := range grid {
		grid[r] = make([]int64, numAdvice)
		for c := 0; c < out; c++ {
			grid[r][c] = int64(rng.Intn(16))
		}
	}
	if d >= 3 {
		r1, r2, c1, c2 := rng.Intn(rows), rng.Intn(rows), rng.Intn(out), rng.Intn(out)
		grid[r2][c2] = grid[r1][c1]
		cs.Copy(Cell{AdviceCol(c1), r1}, Cell{AdviceCol(c2), r2})
		cs.Copy(Cell{AdviceCol(out), 0}, Cell{InstanceCol(0), 0})
	}
	for r := range grid {
		grid[r][out] = 1
		for c := 0; c < out; c++ {
			grid[r][out] *= grid[r][c]
		}
	}

	fixed := [][]ff.Element{make([]ff.Element, n), make([]ff.Element, n)}
	for r := 0; r < rows; r++ {
		fixed[0][r] = ff.One()
	}
	for i := 0; i < 16; i++ {
		fixed[1][i] = ff.NewElement(uint64(i))
	}
	return &quotientCase{cs: cs, fixed: fixed, grid: grid, inst: [][]ff.Element{{ff.NewInt64(grid[0][out])}}}
}

// witness fills the grid, with the output cell of row bump (if any) off by
// one.
func (c *quotientCase) witness(bump int) Witness {
	return WitnessFunc(func(phase int, ch []ff.Element, a *Assignment) error {
		for r, row := range c.grid {
			for col, v := range row {
				if r == bump && col == len(row)-1 {
					v++
				}
				a.Set(AdviceCol(col), r, ff.NewInt64(v))
			}
		}
		return nil
	})
}

// keys sets the case up on n rows. Keygen floors d_max at 3, so d = 2 is
// reached by lowering the key's bound and extended domain by hand, which is
// sound here because a d = 2 case has no argument constraints.
func (c *quotientCase) keys(t *testing.T, d, n int, backend pcs.Backend) *ProvingKey {
	t.Helper()
	pk, _, err := Setup(c.cs, n, c.fixed, backend)
	if err != nil {
		t.Fatal(err)
	}
	if d < pk.DMax {
		pk.DMax = d
		pk.ExtDomain = poly.NewDomain(ExtDomainSize(n, d))
	}
	if pk.DMax != d {
		t.Fatalf("d_max %d, want %d", pk.DMax, d)
	}
	return pk
}

// TestQuotientPiecesMatchReference holds the part-by-part quotient to the
// full-coset reference: identical pieces on satisfied random circuits for
// d_max 2 … 6 on both backends, and the same verdict on three broken
// witnesses — a gate broken on one usable row, a gate whose selector is set
// on a blinding row, and a permutation chunk whose z does not continue the
// previous chunk's (z scaled on its usable rows, so only the links between
// chunks fail).
func TestQuotientPiecesMatchReference(t *testing.T) {
	const n = 32
	for d := 2; d <= 6; d++ {
		for _, backend := range []pcs.Backend{pcs.KZG, pcs.IPA} {
			name := fmt.Sprintf("d%d/%v", d, backend)
			rng := rand.New(rand.NewSource(int64(d)))
			c := newQuotientCase(rng, d, n)
			seed := sha256.Sum256([]byte(name))
			run := func(what string, pk *ProvingKey, w Witness, tamper func(*committed)) (got, want [][]ff.Element, gotErr, wantErr error) {
				t.Helper()
				st, err := commitStages(pk, c.inst, w, nil, &ctrReader{seed: seed})
				if err != nil {
					t.Fatalf("%s %s: %v", name, what, err)
				}
				if tamper != nil {
					tamper(st)
				}
				y := st.tr.Challenge("y")
				got, gotErr = quotient(pk, st, &y)
				want, wantErr = referenceQuotient(pk, st, &y)
				return
			}

			pk := c.keys(t, d, n, backend)
			got, want, gotErr, wantErr := run("honest", pk, c.witness(-1), nil)
			if gotErr != nil || wantErr != nil {
				t.Fatalf("%s: honest witness rejected: %v / reference %v", name, gotErr, wantErr)
			}
			if len(got) != QuotientPieces(d) || len(got) != len(want) {
				t.Fatalf("%s: %d pieces, reference %d, want %d", name, len(got), len(want), QuotientPieces(d))
			}
			for i := range got {
				for k := range got[i] {
					if !got[i][k].Equal(&want[i][k]) {
						t.Fatalf("%s: piece %d coefficient %d differs from the reference", name, i, k)
					}
				}
			}

			reject := func(what string, pk *ProvingKey, w Witness, tamper func(*committed)) {
				t.Helper()
				_, _, gotErr, wantErr := run(what, pk, w, tamper)
				if gotErr == nil || wantErr == nil {
					t.Fatalf("%s %s: accepted (part-by-part error %v, reference error %v)", name, what, gotErr, wantErr)
				}
			}
			reject("gate broken on a usable row", pk, c.witness(1+rng.Intn(len(c.grid)-1)), nil)

			blind := &quotientCase{cs: c.cs, grid: c.grid, inst: c.inst,
				fixed: [][]ff.Element{append([]ff.Element(nil), c.fixed[0]...), c.fixed[1]}}
			blind.fixed[0][n-1] = ff.One()
			reject("gate on a blinding row", blind.keys(t, d, n, backend), c.witness(-1), nil)

			if pk.CS.numZ() < 2 {
				continue
			}
			reject("z chunk link", pk, c.witness(-1), func(st *committed) {
				z := st.lag[zCol(1)]
				two := ff.NewElement(2)
				for r := 0; r <= pk.U; r++ {
					z[r].Mul(&z[r], &two)
				}
				st.coeff[zCol(1)] = append([]ff.Element(nil), z...)
				pk.Domain.IFFT(st.coeff[zCol(1)])
			})
		}
	}
}

// BenchmarkQuotient times the quotient stage alone — the check on H, then
// every queried column brought to the quotient's coset parts one at a time,
// the compiled constraints evaluated there and the pieces interpolated — for
// the test circuit at 2^11 rows on KZG, over the columns of a satisfied
// prove.
func BenchmarkQuotient(b *testing.B) {
	const n = 1 << 11
	pk, _, err := Setup(testCircuit(), n, testFixed(n), pcs.KZG)
	if err != nil {
		b.Fatal(err)
	}
	st, err := commitStages(pk, testInstance(24), testWitness(false, false, false), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	y := st.tr.Challenge("y")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := quotient(pk, st, &y); err != nil {
			b.Fatal(err)
		}
	}
}
