package gadgets_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
	"testing"

	"repro/internal/ff"
	"repro/internal/fixedpoint"
	"repro/internal/gadgets"
	"repro/internal/model"
	"repro/internal/pcs"
	"repro/internal/plonkish"
	"repro/internal/tensor"
)

// pinnedCircuits are the fingerprints of every circuit TestCircuitsPinned
// finalizes: per bundled model, all of its pinConfigs at 6, 12 and 24
// columns; "layers" and "ops", the layerCases and opCases at the same
// layouts; "fixtures", the per-kind fixtures. A gadget-layer change that is meant to leave the
// circuits alone must leave these digests alone. The VK digest cannot stand
// in for them: it does not bind the gate polynomials.
var pinnedCircuits = map[string]string{
	"diffusion-micro": "2a8b306f9979bf17951fd07bebb0672d098bae3d5019ae9b69b838f3b453984b",
	"dlrm-micro":      "c6ffca16b89279659e6487d3551a0ecae3766d6cf0fed4ad8e6b910760e32e61",
	"gpt2-micro":      "a4d298f301393af7c5fb446cc25d2b8839c6060434d068e208c7f00290a822bd",
	"lstm-micro":      "a9d4616597ca63d08f8027ed1ecddfa991f2b4881ee85f75b295f9552d22ea27",
	"mnist":           "67e1e4e491cad5048c9279de772c673061c447b7f44b9dd957d4e9c9ad259dd0",
	"mobilenet-micro": "1aa59fcb7092d54063c7fbed13079daf3256242ae914df3a94efa2922da5f5ae",
	"resnet-micro":    "0d514e03820449c41f3e8368c4805a031db575a5f6d5ce7a97d14fb889312cd8",
	"twitter-micro":   "9145e03c2d091ec7acb966ed803c743898395486bc48747586b35c90b7fea6ef",
	"vgg-micro":       "309a7a7290db889af52831848a2e701dec2dfd7fc27c439f70dbf5201d5304ea",
	"layers":          "01ea0feeb3a71ab4f47a5b617a970029147f805ab12fda4f9a422e54f1516f40",
	"ops":             "1f78fc463f52bcb0541b0812f7ebeb68d3ecda5f562302a7250fdef9778196cd",
	"fixtures":        "8f25ed2e4bac637c99b44d7e813110dd09f8f4a918e4c8df691bcba138950325",
}

// pinFP is the fixed-point format the benchmark compiles every model with.
var pinFP = fixedpoint.Params{ScaleBits: 6, LookupBits: 10}

// pinConfigs returns the logical layouts pinned at one column count: the
// optimizer's candidates, arithmetic through the dot gadget, the multi-row
// variants and the bit-decomposition ReLU.
func pinConfigs(cols int) []gadgets.Config {
	configs := gadgets.EnumerateConfigs(cols, pinFP)
	viaDot := gadgets.DefaultConfig(cols, pinFP)
	viaDot.Arith = gadgets.ArithViaDot
	multi := gadgets.DefaultConfig(cols, pinFP)
	multi.MultiAdd, multi.MultiMax, multi.MultiDot = true, true, true
	decomp := gadgets.DefaultConfig(cols, pinFP)
	decomp.ReLU = gadgets.ReLUDecomp
	return append(configs, viaDot, multi, decomp)
}

// TestCircuitsPinned fingerprints finalized circuits — gates with their
// expression trees, lookups, copies, permuted fixed columns, fixed values,
// witness, instance, used rows and grid height — and compares them with
// pinnedCircuits. Under -short only mnist, dlrm-micro and the fixtures run.
func TestCircuitsPinned(t *testing.T) {
	names := model.Names()
	if testing.Short() {
		names = []string{"mnist", "dlrm-micro"}
	}
	got := map[string]string{}
	built := 0
	for _, name := range names {
		spec, err := model.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		built += pinGraph(t, h, spec.Build(), spec.Input(1))
		got[name] = hex.EncodeToString(h.Sum(nil))
	}
	for name, cases := range map[string][]layerCase{"layers": layerCases, "ops": opCases} {
		h := sha256.New()
		for _, c := range cases {
			g, in := c.graph()
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "layer %s\n", c.name)
			built += pinGraph(t, h, g, in)
		}
		got[name] = hex.EncodeToString(h.Sum(nil))
	}
	h := sha256.New()
	for _, f := range kindFixtures {
		cfg := gadgets.DefaultConfig(8, fixedpoint.Params{ScaleBits: 4, LookupBits: 8})
		if f.cfg != nil {
			f.cfg(&cfg)
		}
		b := gadgets.NewBuilder(cfg)
		b.MakePublic(f.build(b))
		fmt.Fprintf(h, "fixture %s\n", f.name)
		fingerprint(t, h, b)
	}
	got["fixtures"] = hex.EncodeToString(h.Sum(nil))
	t.Logf("%d model circuits and %d fixtures fingerprinted", built, len(kindFixtures))
	for name, digest := range got {
		if want := pinnedCircuits[name]; digest != want {
			t.Errorf("%s: circuit digest %s, pinned %s", name, digest, want)
		}
	}
}

// pinGraph fingerprints g on in at every pinConfigs layout for 6, 12 and 24
// columns, and returns how many of them it could build. It also checks that
// the optimizer's dry simulation of each layout agrees with the build:
// feasibility, grid, rows, gadget counts and the priced shape on both
// backends; and that a prove's witness build gives the build's witness.
func pinGraph(t *testing.T, h hash.Hash, g *model.Graph, in *model.Input) int {
	t.Helper()
	built := 0
	for _, cols := range []int{6, 12, 24} {
		for _, cfg := range pinConfigs(cols) {
			fmt.Fprintf(h, "config %+v\n", cfg)
			b, _, err := g.BuildCircuit(cfg, in)
			sim, simErr := g.SimulateCircuit(cfg, in)
			wit, _, witErr := g.BuildWitness(cfg, in)
			if (err == nil) != (simErr == nil) || (err == nil) != (witErr == nil) {
				t.Errorf("%s %+v: build error %v, simulation error %v, witness build error %v", g.Name, cfg, err, simErr, witErr)
			}
			if err != nil {
				// A layout the model cannot take is pinned as such.
				fmt.Fprintf(h, "infeasible\n")
				continue
			}
			built++
			art := fingerprint(t, h, b)
			if simErr == nil {
				checkSimulation(t, g.Name, cfg, art, b, sim)
			}
			if witErr == nil {
				checkWitnessBuild(t, g.Name, cfg, art, b, wit)
			}
		}
	}
	return built
}

// checkSimulation compares a dry build of a layout with its real build b and
// b's finalized artifact.
func checkSimulation(t *testing.T, name string, cfg gadgets.Config, art *gadgets.Artifact, b, sim *gadgets.Builder) {
	t.Helper()
	if sim.MinN() != art.N || sim.MinRows() != art.UsedRows || !reflect.DeepEqual(sim.Stats(), b.Stats()) {
		t.Errorf("%s %+v: simulated N %d, rows %d, stats %+v; built N %d, rows %d, stats %+v",
			name, cfg, sim.MinN(), sim.MinRows(), sim.Stats(), art.N, art.UsedRows, b.Stats())
	}
	cs, err := sim.ConstraintSystem()
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []pcs.Backend{pcs.KZG, pcs.IPA} {
		if got, want := plonkish.ShapeOf(cs, art.N, backend), plonkish.ShapeOf(art.CS, art.N, backend); got != want {
			t.Errorf("%s %+v on %v: simulated shape %+v, built %+v", name, cfg, backend, got, want)
		}
	}
	if _, err := sim.Finalize(art.N); err == nil {
		t.Errorf("%s %+v: a dry build finalized", name, cfg)
	}
}

// checkWitnessBuild compares a witness build of a layout with its real
// build b and b's finalized artifact: the same rows and gadget counts, the
// same instance and the same witness in both phases, and no constraint
// system or fixed columns.
func checkWitnessBuild(t *testing.T, name string, cfg gadgets.Config, art *gadgets.Artifact, b, wit *gadgets.Builder) {
	t.Helper()
	if !reflect.DeepEqual(wit.Stats(), b.Stats()) {
		t.Errorf("%s %+v: witness build stats %+v, built %+v", name, cfg, wit.Stats(), b.Stats())
	}
	if _, err := wit.ConstraintSystem(); err == nil {
		t.Errorf("%s %+v: a witness build gave a constraint system", name, cfg)
	}
	wart, err := wit.Finalize(art.N)
	if err != nil {
		t.Fatal(err)
	}
	if wart.CS != nil || wart.Fixed != nil || wart.N != art.N || wart.UsedRows != art.UsedRows ||
		!reflect.DeepEqual(wart.Instance, art.Instance) {
		t.Errorf("%s %+v: witness build artifact differs from the build's beyond its witness", name, cfg)
	}
	want, got := plonkish.NewAssignment(art.CS, art.N), plonkish.NewAssignment(art.CS, art.N)
	ch := []ff.Element{ff.NewElement(7)}
	for phase := 0; phase <= art.CS.NumChallenges; phase++ {
		if err := art.Witness.Fill(phase, ch, want); err != nil {
			t.Fatal(err)
		}
		if err := wart.Witness.Fill(phase, ch, got); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got.Advice, want.Advice) {
		t.Errorf("%s %+v: witness build's witness differs from the build's", name, cfg)
	}
}

// layerCases are one-node graphs for the layer lowerings that no bundled
// model reaches: strided convolutions, average pooling, a non-square global
// pool, a bias-free fc and rectangular products. They are pinned together
// under "layers".
var layerCases = []layerCase{
	{"conv2d same stride 2 bias", model.Node{Op: "conv2d", Weight: "k", Bias: "b", Stride: 2, Pad: "same"},
		[][]int{{5, 5, 2}}, map[string][]int{"k": {3, 3, 2, 3}, "b": {3}}},
	{"conv2d same stride 2", model.Node{Op: "conv2d", Weight: "k", Stride: 2, Pad: "same"},
		[][]int{{6, 5, 2}}, map[string][]int{"k": {2, 3, 2, 3}}},
	{"conv2d valid stride 2 bias", model.Node{Op: "conv2d", Weight: "k", Bias: "b", Stride: 2, Pad: "valid"},
		[][]int{{5, 6, 3}}, map[string][]int{"k": {3, 2, 3, 2}, "b": {2}}},
	{"conv2d valid stride 2", model.Node{Op: "conv2d", Weight: "k", Stride: 2, Pad: "valid"},
		[][]int{{5, 5, 2}}, map[string][]int{"k": {3, 3, 2, 3}}},
	{"depthwise_conv2d same stride 2", model.Node{Op: "depthwise_conv2d", Weight: "k", Bias: "b", Stride: 2, Pad: "same"},
		[][]int{{5, 4, 3}}, map[string][]int{"k": {3, 3, 3}, "b": {3}}},
	{"avg_pool", model.Node{Op: "avg_pool", PoolK: 2, Stride: 2},
		[][]int{{4, 5, 2}}, nil},
	{"avg_pool overlapping", model.Node{Op: "avg_pool", PoolK: 3, Stride: 1},
		[][]int{{4, 4, 2}}, nil},
	{"max_pool overlapping", model.Node{Op: "max_pool", PoolK: 2, Stride: 1},
		[][]int{{3, 4, 2}}, nil},
	{"global_avg_pool", model.Node{Op: "global_avg_pool"},
		[][]int{{2, 5, 3}}, nil},
	{"fc", model.Node{Op: "fc", Weight: "w"},
		[][]int{{2, 5}}, map[string][]int{"w": {3, 5}}},
	{"matmul", model.Node{Op: "matmul"},
		[][]int{{2, 3}, {3, 4}}, nil},
	{"batch_matmul", model.Node{Op: "batch_matmul"},
		[][]int{{2, 3, 2}, {2, 2, 4}}, nil},
}

// opCases are one-node graphs for the ops that neither a bundled model nor
// layerCases reach, pinned together under "ops": the lookup activations no
// model uses, the binary ops (with a broadcast second operand where its
// shape differs), the pointwise and reduction ops, rms_norm with and
// without gamma, and the free shape ops.
var opCases = []layerCase{
	{"leaky_relu", model.Node{Op: "leaky_relu"}, [][]int{{2, 3}}, nil},
	{"elu", model.Node{Op: "elu"}, [][]int{{2, 3}}, nil},
	{"tanh", model.Node{Op: "tanh"}, [][]int{{2, 3}}, nil},
	{"softplus", model.Node{Op: "softplus"}, [][]int{{2, 3}}, nil},
	{"exp", model.Node{Op: "exp"}, [][]int{{2, 3}}, nil},
	{"sqrt", model.Node{Op: "sqrt"}, [][]int{{2, 3}}, nil},
	{"rsqrt", model.Node{Op: "rsqrt"}, [][]int{{2, 3}}, nil},
	{"erf", model.Node{Op: "erf"}, [][]int{{2, 3}}, nil},
	{"sub broadcast", model.Node{Op: "sub"}, [][]int{{2, 3}, {3}}, nil},
	{"div broadcast", model.Node{Op: "div"}, [][]int{{2, 3}, {1, 3}}, nil},
	{"div", model.Node{Op: "div"}, [][]int{{2, 3}, {2, 3}}, nil},
	{"squared_difference broadcast", model.Node{Op: "squared_difference"}, [][]int{{2, 3}, {3}}, nil},
	{"square", model.Node{Op: "square"}, [][]int{{2, 3}}, nil},
	{"neg", model.Node{Op: "neg"}, [][]int{{2, 3}}, nil},
	{"abs", model.Node{Op: "abs"}, [][]int{{2, 3}}, nil},
	{"minimum broadcast", model.Node{Op: "minimum"}, [][]int{{2, 3}, {1, 3}}, nil},
	{"minimum", model.Node{Op: "minimum"}, [][]int{{2, 3}, {2, 3}}, nil},
	{"maximum broadcast", model.Node{Op: "maximum"}, [][]int{{2, 3}, {3}}, nil},
	{"reduce_sum", model.Node{Op: "reduce_sum"}, [][]int{{2, 3}}, nil},
	{"reduce_mean", model.Node{Op: "reduce_mean"}, [][]int{{2, 3}}, nil},
	{"reduce_max", model.Node{Op: "reduce_max"}, [][]int{{2, 3}}, nil},
	{"rms_norm gamma", model.Node{Op: "rms_norm", Weight: "g"}, [][]int{{2, 3}}, map[string][]int{"g": {3}}},
	{"rms_norm", model.Node{Op: "rms_norm"}, [][]int{{2, 3}}, nil},
	{"flatten", model.Node{Op: "flatten"}, [][]int{{2, 3}}, nil},
	{"pad_zero", model.Node{Op: "pad_zero", Starts: []int{1, 0}, Ends: []int{0, 2}}, [][]int{{2, 3}}, nil},
	{"split_last", model.Node{Op: "split_last", Parts: 2, Axis: 1}, [][]int{{2, 4}}, nil},
	{"identity shape", model.Node{Op: "identity", Shape: []int{3, 2}}, [][]int{{2, 3}}, nil},
	{"identity", model.Node{Op: "identity"}, [][]int{{2, 3}}, nil},
	{"expand_dims", model.Node{Op: "expand_dims", Shape: []int{1, 2, 3}}, [][]int{{2, 3}}, nil},
	{"squeeze", model.Node{Op: "squeeze", Shape: []int{2, 3}}, [][]int{{1, 2, 3}}, nil},
}

// layerCase is one node applied to float inputs x0, x1, … of the given
// shapes, with weights of the given shapes; inputs and weights get small
// deterministic values.
type layerCase struct {
	name    string
	node    model.Node
	inputs  [][]int
	weights map[string][]int
}

func (c layerCase) graph() (*model.Graph, *model.Input) {
	g := &model.Graph{Name: c.name, Weights: map[string]model.Weight{}, Outputs: []string{"y"}}
	in := model.NewInput()
	values := func(n, seed int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64((i*5+seed)%9-4) / 8
		}
		return v
	}
	n := c.node
	n.Output = "y"
	for i, shape := range c.inputs {
		name := fmt.Sprintf("x%d", i)
		g.Inputs = append(g.Inputs, model.InputSpec{Name: name, Shape: shape, Kind: model.FloatInput})
		v := values(tensor.NumElems(shape), i)
		if n.Op == "div" && i == 1 {
			for j := range v {
				v[j] = math.Abs(v[j]) + 0.25 // a positive divisor
			}
		}
		in.Floats[name] = v
		n.Inputs = append(n.Inputs, name)
	}
	for name, shape := range c.weights {
		g.Weights[name] = model.Weight{Shape: shape, Data: values(tensor.NumElems(shape), int(name[0]))}
	}
	g.Nodes = []model.Node{n}
	return g, in
}

// fingerprint writes a finalized circuit of b, at its minimal grid, to h,
// and returns it.
func fingerprint(t *testing.T, h hash.Hash, b *gadgets.Builder) *gadgets.Artifact {
	t.Helper()
	art, err := b.Finalize(b.MinN())
	if err != nil {
		t.Fatal(err)
	}
	cs := art.CS
	fmt.Fprintf(h, "N %d used %d fixed %d advice %d instance %d phases %v challenges %d mindegree %d perm %v\n",
		art.N, art.UsedRows, cs.NumFixed, cs.NumAdvice, cs.NumInstance,
		cs.AdvicePhase, cs.NumChallenges, cs.MinDegree, cs.PermFixed)
	for _, g := range cs.Gates {
		fmt.Fprintf(h, "gate %q\n", g.Name)
		for _, p := range g.Polys {
			fmt.Fprintf(h, "%#v\n", p)
		}
	}
	for _, l := range cs.Lookups {
		fmt.Fprintf(h, "lookup %q %#v %#v %#v %d\n", l.Name, l.Selector, l.Inputs, l.Table, l.TableLen)
	}
	var buf []byte
	for _, cp := range cs.Copies {
		for _, c := range cp {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Col.Kind))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Col.Index))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Row))
		}
	}
	h.Write(buf)
	a := plonkish.NewAssignment(cs, art.N)
	if err := art.Witness.Fill(0, nil, a); err != nil {
		t.Fatal(err)
	}
	for _, part := range [][][]ff.Element{art.Fixed, a.Advice, art.Instance} {
		fmt.Fprintf(h, "columns %d\n", len(part))
		for _, col := range part {
			buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(len(col)))
			for r := range col {
				if col[r].IsZero() {
					continue
				}
				buf = binary.LittleEndian.AppendUint64(buf, uint64(r))
				for _, l := range col[r].Limbs() {
					buf = binary.LittleEndian.AppendUint64(buf, l)
				}
			}
			h.Write(buf)
		}
	}
	return art
}

// kindFixtures are small builds that between them use every gadget kind,
// at 8 columns with scale 4 and lookup 8 unless cfg says otherwise. Each
// one's value is made public.
var kindFixtures = []struct {
	name  string
	cfg   func(*gadgets.Config)
	build func(*gadgets.Builder) *gadgets.Value
}{
	{"io", nil, func(b *gadgets.Builder) *gadgets.Value { return b.Witness(7) }},
	{"add", nil, func(b *gadgets.Builder) *gadgets.Value { return b.Add(b.Witness(3), b.Witness(-5)) }},
	{"sub", nil, func(b *gadgets.Builder) *gadgets.Value { return b.Sub(b.Witness(3), b.Witness(-5)) }},
	{"mul", nil, func(b *gadgets.Builder) *gadgets.Value { return b.MulRaw(b.Witness(3), b.Witness(-5)) }},
	{"square", nil, func(b *gadgets.Builder) *gadgets.Value { return b.SquareRaw(b.Witness(-6)) }},
	{"sqdiff", nil, func(b *gadgets.Builder) *gadgets.Value { return b.SqDiffRaw(b.Witness(3), b.Witness(-5)) }},
	{"mulc", nil, func(b *gadgets.Builder) *gadgets.Value { return b.MulC(b.Witness(3), -4) }},
	{"sum", nil, func(b *gadgets.Builder) *gadgets.Value { return b.SumVec(witnesses(b, 11)) }},
	{"dot", func(c *gadgets.Config) { c.Dot = gadgets.DotSum }, func(b *gadgets.Builder) *gadgets.Value {
		return b.DotRaw(witnesses(b, 5), witnesses(b, 5), nil, nil)
	}},
	{"dot_bias", nil, func(b *gadgets.Builder) *gadgets.Value {
		return b.DotRaw(witnesses(b, 5), witnesses(b, 5), nil, b.Witness(2))
	}},
	{"dot_const", func(c *gadgets.Config) { c.Dot = gadgets.DotSum }, func(b *gadgets.Builder) *gadgets.Value {
		return b.DotRaw(witnesses(b, 9), nil, []int64{1, -2, 3, 0, 5, -6, 7, 8, -9}, nil)
	}},
	{"dot_const_acc", nil, func(b *gadgets.Builder) *gadgets.Value {
		return b.DotRaw(witnesses(b, 9), nil, []int64{1, -2, 3, 0, 5, -6, 7, 8, -9}, b.Witness(4))
	}},
	{"divround", nil, func(b *gadgets.Builder) *gadgets.Value { return b.Rescale(b.Witness(-37)) }},
	{"vardiv", nil, func(b *gadgets.Builder) *gadgets.Value { return b.VarDiv(b.Witness(100), b.Witness(7)) }},
	{"divfloor", nil, func(b *gadgets.Builder) *gadgets.Value { return b.DivFloor(b.Witness(-100), b.Witness(7)) }},
	{"max", nil, func(b *gadgets.Builder) *gadgets.Value { return b.MaxVec(witnesses(b, 5)) }},
	{"range", nil, func(b *gadgets.Builder) *gadgets.Value {
		x := b.Witness(-17)
		b.RangeAssert(x)
		return x
	}},
	{"relu_decomp", func(c *gadgets.Config) { c.NumCols, c.ReLU = 21, gadgets.ReLUDecomp }, func(b *gadgets.Builder) *gadgets.Value {
		return b.Add(b.ReLU(b.Witness(-9)), b.ReLU(b.Witness(9)))
	}},
	{"add_mr", func(c *gadgets.Config) { c.MultiAdd = true }, func(b *gadgets.Builder) *gadgets.Value {
		return b.Add(b.Witness(3), b.Witness(-5))
	}},
	{"max_mr", func(c *gadgets.Config) { c.MultiMax = true }, func(b *gadgets.Builder) *gadgets.Value {
		return b.MaxVec(witnesses(b, 5))
	}},
	{"dot_mr", func(c *gadgets.Config) { c.MultiDot = true }, func(b *gadgets.Builder) *gadgets.Value {
		return b.DotRaw(witnesses(b, 9), witnesses(b, 9), nil, nil)
	}},
	{"viadot", func(c *gadgets.Config) { c.Arith = gadgets.ArithViaDot }, func(b *gadgets.Builder) *gadgets.Value {
		x, y := b.Witness(3), b.Witness(-5)
		return b.MulC(b.Add(b.Sub(x, y), b.SqDiffRaw(x, y)), 3)
	}},
	// Nonlinearities take fixed columns sorted by name and before every
	// gather table, whatever the order of first use.
	{"nonlinear", nil, func(b *gadgets.Builder) *gadgets.Value {
		b.RegisterTable("emb", 3, 2, []int64{1, 2, 3, 4, 5, 6})
		var out []*gadgets.Value
		for _, nl := range []fixedpoint.Nonlinearity{fixedpoint.Tanh, fixedpoint.Exp, fixedpoint.ReLU, fixedpoint.Sigmoid} {
			for _, v := range []int64{-20, 0, 5} {
				out = append(out, b.Nonlinear(nl, b.Witness(v)))
			}
		}
		return b.SumVec(out)
	}},
	{"gather", nil, func(b *gadgets.Builder) *gadgets.Value {
		b.RegisterTable("unused", 2, 1, []int64{9, 8})
		b.RegisterTable("emb", 4, 3, []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
		e := b.Gather("emb", b.Witness(2))
		return b.SumVec(append(e, b.Gather("emb", b.Witness(0))...))
	}},
	{"mixed", nil, func(b *gadgets.Builder) *gadgets.Value {
		x := b.Add(b.Constant(5), b.Witness(-3))
		y := b.Max(b.Rescale(b.MulRaw(x, b.Witness(40))), b.Constant(1))
		z := b.DivFloor(b.Nonlinear(fixedpoint.Exp, y), b.Constant(3))
		b.MakePublic(y)
		return b.DotRaw([]*gadgets.Value{x, y, z}, nil, []int64{2, 0, -1}, nil)
	}},
}

// witnesses returns n small distinct witness values.
func witnesses(b *gadgets.Builder, n int) []*gadgets.Value {
	out := make([]*gadgets.Value, n)
	for i := range out {
		out[i] = b.Witness(int64(3*i - 7))
	}
	return out
}
