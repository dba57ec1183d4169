package limbs

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// bigButterfly is one butterfly computed with big.Int: a + t and a − t mod
// M for t = w·b·2^-256, on MontMul-form operands.
func bigButterfly(mod *Modulus, a, b, w Limbs) (Limbs, Limbs) {
	rInv := new(big.Int).Lsh(big.NewInt(1), 256)
	rInv.ModInverse(rInv, mod.Big)
	t := new(big.Int).Mul(ToBig(&w), ToBig(&b))
	t.Mul(t, rInv).Mod(t, mod.Big)
	return mod.FromBig(new(big.Int).Add(ToBig(&a), t)), mod.FromBig(new(big.Int).Sub(ToBig(&a), t))
}

// nttKernels are m's block operations on each kernel this CPU runs: the
// portable one always, the IFMA one where hasIFMA.
func nttKernels(mod *Modulus) map[string]*Modulus {
	k := map[string]*Modulus{"portable": mod.Portable()}
	if hasIFMA {
		k["ifma"] = mod
	}
	return k
}

// nttCase is the operands of one check of the NTT block operations: data
// rows for 2·groups·dist blocks, twiddle rows for dist blocks and a 16th
// "root" for the in-block stages (any value serves: the kernels and the
// reference take the same powers of it).
type nttCase struct {
	data, tw       []Limbs
	root           Limbs
	groups, dist   int
	cnt, inStages  int
	gatherN, shift int
}

// newNTTCase draws a case's operands with pick.
func newNTTCase(pick func() Limbs, groups, dist, cnt, inStages, gatherN, shift int) nttCase {
	c := nttCase{groups: groups, dist: dist, cnt: cnt, inStages: inStages, gatherN: gatherN, shift: shift, root: pick()}
	c.data = make([]Limbs, 2*groups*dist*BlockRows)
	for i := range c.data {
		c.data[i] = pick()
	}
	c.tw = make([]Limbs, dist*BlockRows)
	for i := range c.tw {
		c.tw[i] = pick()
	}
	return c
}

// checkNTTKernel holds mod's NTT block operations to big.Int on c: a
// gather of gatherN rows under a rotated index and its put, the
// butterflies of c's groups, and c.inStages in-block stages.
func checkNTTKernel(t testing.TB, name string, mod *Modulus, c nttCase) {
	t.Helper()
	nb := len(c.data) / BlockRows
	blocks := make([]Block, nb)
	for b := range blocks {
		var idx [BlockRows]int
		for r := range idx {
			idx[r] = b*BlockRows + r
		}
		mod.GatherBlock(&blocks[b], c.data, &idx, BlockRows)
	}
	tw := make([]Block, c.dist)
	for b := range tw {
		mod.LoadBlock(&tw[b], c.tw[b*BlockRows:(b+1)*BlockRows])
	}
	read := func() []Limbs {
		out := make([]Limbs, len(c.data))
		for b := range blocks {
			mod.PutBlock(out[b*BlockRows:(b+1)*BlockRows], &blocks[b])
		}
		return out
	}
	compare := func(op string, got, want []Limbs) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s %s, modulus %s: row %d = %s, want %s", name, op, mod.Big, i, String(&got[i]), String(&want[i]))
			}
		}
	}
	compare("gather/put", read(), c.data)

	// A gather of the first gatherN rows under a rotated index, and a put of
	// them that must not write past them.
	var idx [BlockRows]int
	for r := range idx {
		idx[r] = (r + c.shift) % BlockRows
	}
	var g Block
	mod.GatherBlock(&g, c.data[:BlockRows], &idx, c.gatherN)
	guard := Limbs{0xdead, 0xbeef, 0xf00d, 0xcafe}
	got := make([]Limbs, BlockRows)
	for i := range got {
		got[i] = guard
	}
	mod.PutBlock(got[:c.gatherN], &g)
	for r := range got {
		want := guard
		if r < c.gatherN {
			want = c.data[idx[r]]
		}
		if got[r] != want {
			t.Fatalf("%s gather of %d rows under shift %d: row %d = %s, want %s", name, c.gatherN, c.shift, r, String(&got[r]), String(&want))
		}
	}

	want := append([]Limbs(nil), c.data...)
	for gr := 0; gr < c.groups; gr++ {
		for k := 0; k < c.cnt; k++ {
			x, y := (2*gr*c.dist+k)*BlockRows, (2*gr*c.dist+c.dist+k)*BlockRows
			for r := 0; r < BlockRows; r++ {
				want[x+r], want[y+r] = bigButterfly(mod, want[x+r], want[y+r], c.tw[k*BlockRows+r])
			}
		}
	}
	mod.Butterflies(blocks, c.groups, c.dist, c.cnt, tw)
	compare(fmt.Sprintf("butterflies (%d groups, dist %d, cnt %d)", c.groups, c.dist, c.cnt), read(), want)

	var pw [8]Limbs
	pw[0] = mod.R
	for i := 1; i < len(pw); i++ {
		mod.MontMul(&pw[i], &pw[i-1], &c.root)
	}
	for b := 0; b < nb; b++ {
		v := want[b*BlockRows : (b+1)*BlockRows]
		for s := 0; s < c.inStages; s++ {
			h := 1 << s
			for r := range v {
				if r&h == 0 {
					v[r], v[r+h] = bigButterfly(mod, v[r], v[r+h], pw[(r%h)*8/h])
				}
			}
		}
	}
	var itw InBlockTwiddles
	mod.InBlockTwiddlesOf(&itw, &c.root)
	mod.InBlockStages(blocks, &itw, c.inStages)
	compare(fmt.Sprintf("%d in-block stages", c.inStages), read(), want)
}

// checkButterflyRows holds the portable row butterfly — its assembly run
// where the CPU has ADX, and the generic loop — to big.Int on n rows.
func checkButterflyRows(t testing.TB, mod *Modulus, x, y, w []Limbs) {
	t.Helper()
	wantX, wantY := append([]Limbs(nil), x...), append([]Limbs(nil), y...)
	for i := range x {
		wantX[i], wantY[i] = bigButterfly(mod, x[i], y[i], w[i])
	}
	runs := map[string]func(x, y, w []Limbs){"generic": mod.butterflyRunGeneric}
	if hasADX {
		runs["dispatch"] = mod.butterflyRows
	}
	for name, run := range runs {
		gx, gy := append([]Limbs(nil), x...), append([]Limbs(nil), y...)
		run(gx, gy, w)
		if !equalLimbs(gx, wantX) || !equalLimbs(gy, wantY) {
			t.Fatalf("%s run of %d rows: x %v y %v, want %v %v", name, len(x), gx, gy, wantX, wantY)
		}
	}
}

func equalLimbs(a, b []Limbs) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestButterflyKernelsAgree holds the butterfly kernels to big.Int, on both
// BN254 moduli and the edge modulus: the portable row butterfly (assembly
// and generic, with and without a first twiddle of 1) on runs of 1 to 40
// rows, and the NTT block operations of every block kernel this CPU runs —
// gathers and puts, butterflies over one and several groups of blocks with
// every count up to the distance, and one to four in-block stages.
func TestButterflyKernelsAgree(t *testing.T) {
	if !hasIFMA {
		t.Logf("kernel %q: checking the portable block kernel only", Kernel())
	}
	rng := rand.New(rand.NewSource(2))
	for _, mod := range []*Modulus{m, fpM, edgeM} {
		vals := kernelOperands(mod, rng, 29)
		next := 0
		pick := func() Limbs {
			next = (next + 7) % len(vals)
			return vals[next]
		}
		for n := 1; n <= 40; n += 3 {
			x, y, w := make([]Limbs, n), make([]Limbs, n), make([]Limbs, n)
			for i := range x {
				x[i], y[i], w[i] = pick(), pick(), pick()
			}
			checkButterflyRows(t, mod, x, y, w)
			w[0] = mod.R
			checkButterflyRows(t, mod, x, y, w)
		}
		for _, shape := range [][3]int{{1, 1, 1}, {3, 1, 1}, {2, 2, 1}, {2, 2, 2}, {1, 4, 3}} {
			for stages := 1; stages <= 4; stages++ {
				c := newNTTCase(pick, shape[0], shape[1], shape[2], stages, 1+rng.Intn(BlockRows), rng.Intn(BlockRows))
				for name, k := range nttKernels(mod) {
					checkNTTKernel(t, name, k, c)
				}
			}
		}
	}
}

// TestButterfliesCheckBounds: block butterflies, in-block stages, gathers
// and puts that name rows, blocks or twiddles outside their slices panic
// before any kernel runs.
func TestButterfliesCheckBounds(t *testing.T) {
	for name, k := range nttKernels(m) {
		x, w := make([]Block, 4), make([]Block, 2)
		var tw InBlockTwiddles
		var b Block
		four := make([]Limbs, 4)
		idx := [BlockRows]int{0, 1, 2, 3, 4}
		for op, run := range map[string]func(){
			"no groups":         func() { k.Butterflies(x, 0, 1, 1, w) },
			"zero distance":     func() { k.Butterflies(x, 1, 0, 1, w) },
			"zero count":        func() { k.Butterflies(x, 1, 1, 0, w) },
			"count past dist":   func() { k.Butterflies(x, 1, 1, 2, w) },
			"twiddles short":    func() { k.Butterflies(x, 1, 3, 3, w) },
			"groups past x":     func() { k.Butterflies(x, 2, 2, 1, w) },
			"pairs past x":      func() { k.Butterflies(x[:3], 1, 2, 2, w) },
			"no stages":         func() { k.InBlockStages(x, &tw, 0) },
			"five stages":       func() { k.InBlockStages(x, &tw, 5) },
			"gather past src":   func() { k.GatherBlock(&b, four, &idx, 5) },
			"gather negative":   func() { k.GatherBlock(&b, four, &[BlockRows]int{-1}, 1) },
			"gather no rows":    func() { k.GatherBlock(&b, four, &idx, 0) },
			"put too many":      func() { k.PutBlock(make([]Limbs, BlockRows+1), &b) },
			"put no rows":       func() { k.PutBlock(nil, &b) },
			"gather too many":   func() { k.GatherBlock(&b, four, &idx, BlockRows+1) },
			"butterflies nil x": func() { k.Butterflies(nil, 1, 1, 1, w) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s %s: no panic", name, op)
					}
				}()
				run()
			}()
		}
		k.Butterflies(x, 2, 1, 1, w[:1]) // the largest shape that fits
		k.InBlockStages(nil, &tw, 4)     // no blocks, no work
	}
}

// FuzzButterfly runs checkNTTKernel on every block kernel and
// checkButterflyRows on a fuzzed case: a seed for the values, a shape, a
// stage count, a gather, and an operand every value is pinned to where
// fill is 1–5 (0, 1, R, M − 1, M − 2), for each modulus of
// TestButterflyKernelsAgree.
func FuzzButterfly(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(4), uint8(16), uint8(0))
	f.Add(int64(2), uint8(7), uint8(2), uint8(3), uint8(4)) // every operand M − 1
	f.Add(int64(3), uint8(5), uint8(1), uint8(9), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, shape, stages, gatherN, fill uint8) {
		rng := rand.New(rand.NewSource(seed))
		groups, dist := 1+int(shape&3), 1<<(shape>>2&3)
		cnt := 1 + int(shape>>4)%dist
		for _, mod := range []*Modulus{m, fpM, edgeM} {
			vals := kernelOperands(mod, rng, 8)
			pick := func() Limbs { return vals[rng.Intn(len(vals))] }
			if fill%6 != 0 {
				v := vals[fill%6-1]
				pick = func() Limbs { return v }
			}
			c := newNTTCase(pick, groups, dist, cnt, 1+int(stages%4), 1+int(gatherN)%BlockRows, rng.Intn(BlockRows))
			for name, k := range nttKernels(mod) {
				checkNTTKernel(t, name, k, c)
			}
			n := 1 + int(seed&31)
			x, y, w := make([]Limbs, n), make([]Limbs, n), make([]Limbs, n)
			for i := range x {
				x[i], y[i], w[i] = pick(), pick(), pick()
			}
			checkButterflyRows(t, mod, x, y, w)
		}
	})
}

// BenchmarkButterflies times a late NTT stage's shape — one group of 64
// block pairs, 1024 butterflies — and the four in-block stages over 64
// blocks on each block kernel this CPU runs, and reports ns per butterfly.
func BenchmarkButterflies(b *testing.B) {
	const pairs = 64
	rng := rand.New(rand.NewSource(5))
	vals := kernelOperands(m, rng, 64)
	for _, name := range []string{"portable", "ifma"} {
		k := nttKernels(m)[name]
		if k == nil {
			continue
		}
		x, w := make([]Block, 2*pairs), make([]Block, pairs)
		src := make([]Limbs, BlockRows)
		var idx [BlockRows]int
		for i := range idx {
			idx[i] = i
		}
		for i := range x {
			for r := range src {
				src[r] = vals[rng.Intn(len(vals))]
			}
			k.GatherBlock(&x[i], src, &idx, BlockRows)
			if i < pairs {
				k.LoadBlock(&w[i], src)
			}
		}
		var tw InBlockTwiddles
		k.InBlockTwiddlesOf(&tw, &vals[len(vals)-1])
		b.Run(name+"/blocks", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.Butterflies(x, 1, pairs, pairs, w)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pairs*BlockRows), "ns/butterfly")
		})
		b.Run(name+"/in-block", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.InBlockStages(x, &tw, 4)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(x)*4*BlockRows/2), "ns/butterfly")
		})
	}
}
