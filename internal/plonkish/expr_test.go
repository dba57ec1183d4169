package plonkish

import (
	"testing"

	"repro/internal/ff"
)

func TestExprDegree(t *testing.T) {
	a, b := V(AdviceCol(0)), V(AdviceCol(1))
	cases := []struct {
		e    Expr
		want int
	}{
		{C(ff.NewElement(5)), 0},
		{a, 1},
		{XExpr{}, 1},
		{ChallengeExpr{0}, 0},
		{ArgChallengeExpr{Beta}, 0},
		{Sum(a, b), 1},
		{Mul(a, b), 2},
		{Mul(a, b, a), 3},
		{Scale(ff.NewElement(3), Mul(a, b)), 2},
		{Sub(Mul(a, b), a), 2},
		{Mul(Sum(a, C(ff.One())), Sum(b, XExpr{})), 2},
	}
	for i, c := range cases {
		if got := c.e.Degree(); got != c.want {
			t.Errorf("case %d: degree %d, want %d", i, got, c.want)
		}
	}
}

func TestCollectQueriesSortedDeduped(t *testing.T) {
	e1 := Mul(V(AdviceCol(2)), VRot(AdviceCol(0), 1))
	e2 := Sum(V(AdviceCol(0)), V(FixedCol(1)), V(AdviceCol(2)))
	qs := CollectQueries(e1, e2, nil)
	want := []Query{
		{Col: FixedCol(1)},
		{Col: AdviceCol(0)},
		{Col: AdviceCol(0), Rot: 1},
		{Col: AdviceCol(2)},
	}
	if len(qs) != len(want) {
		t.Fatalf("got %d queries, want %d: %v", len(qs), len(want), qs)
	}
	for i := range want {
		if qs[i] != want[i] {
			t.Fatalf("query %d = %v, want %v", i, qs[i], want[i])
		}
	}
}

func TestVKDigestBindsCircuit(t *testing.T) {
	_, vk1 := setup(t, 0)
	cs := testCircuit()
	cs.AddGate("extra", Mul(V(FixedCol(0)), V(AdviceCol(0))))
	_, vk2, err := Setup(cs, 32, testFixed(32), 0)
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := vk1.Digest(), vk2.Digest()
	if string(d1) == string(d2) {
		t.Fatal("different circuits must have different digests")
	}
}
