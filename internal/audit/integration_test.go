package audit_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/fixedpoint"
	"repro/internal/model"
	"repro/internal/pcs"
	"repro/internal/plonkish"
)

// Integration suite: the auditor must pass every optimizer-chosen layout for
// the bundled models (no false positives on known-good circuits), and its
// independently derived degree bound and quotient-domain size must agree
// with the proving key the prover actually uses.

// planFor optimizes one bundled model with the fast CI parameters (the same
// ones make audit-smoke uses).
func planFor(t *testing.T, name string, backend pcs.Backend) *core.Plan {
	t.Helper()
	spec, err := model.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions(backend, fixedpoint.Params{ScaleBits: 5, LookupBits: 9})
	opt.MaxCols = 16
	opt.Calibration = costmodel.StaticCalibration()
	plan, _, _, err := core.Optimize(spec.Build(), spec.Input(1), opt)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestBundledModelsAuditClean(t *testing.T) {
	for _, name := range []string{"mnist", "dlrm-micro"} {
		for _, backend := range []pcs.Backend{pcs.KZG, pcs.IPA} {
			t.Run(name+"/"+backend.String(), func(t *testing.T) {
				plan := planFor(t, name, backend)
				rep, err := plan.Audit(nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Clean() {
					data, _ := rep.JSON()
					t.Fatalf("audit errors on a known-good model:\n%s", data)
				}
				if !rep.WitnessAudited || !rep.FixedAudited {
					t.Fatalf("full audit expected (witness=%v fixed=%v)", rep.WitnessAudited, rep.FixedAudited)
				}
				if rep.CellsScanned == 0 {
					t.Fatal("witness scan examined no cells")
				}
				t.Log(rep.Summary())
			})
		}
	}
}

// TestAuditDegreeMatchesProver cross-validates the audit's degree machinery
// against keygen for every bundled model: the derived d_max and extended
// domain must equal what the proving key carries, and the independently
// recomputed max constraint degree must fit the bound.
func TestAuditDegreeMatchesProver(t *testing.T) {
	if testing.Short() {
		t.Skip("keygen for every bundled model is slow")
	}
	for _, name := range model.Names() {
		t.Run(name, func(t *testing.T) {
			plan := planFor(t, name, pcs.KZG)
			keys, err := plan.Setup()
			if err != nil {
				t.Fatal(err)
			}
			// Derived (keys-free) audit must land on the prover's values.
			derived, err := plan.Audit(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if derived.DMax != keys.PK.DMax {
				t.Fatalf("derived d_max %d != proving key d_max %d", derived.DMax, keys.PK.DMax)
			}
			if derived.ExtN != keys.PK.ExtDomain.N {
				t.Fatalf("derived ext domain %d != proving key %d", derived.ExtN, keys.PK.ExtDomain.N)
			}
			if derived.MaxConstraintDegree > derived.DMax {
				t.Fatalf("max constraint degree %d exceeds d_max %d yet keygen accepted it",
					derived.MaxConstraintDegree, derived.DMax)
			}
			checkDigestFromCoefficients(t, keys.PK)
			// Pinned audit (bounds taken from the key) must stay clean.
			pinned, err := plan.Audit(keys, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !pinned.Clean() {
				data, _ := pinned.JSON()
				t.Fatalf("audit errors against the real proving key:\n%s", data)
			}
		})
	}
}

// checkDigestFromCoefficients recomputes every verifying-key commitment as
// Commit(IFFT(column values)) and requires the digest over those to equal
// the key's own: keygen commits columns from their evaluations where the
// scheme allows (DESIGN.md §14), and that must not show in the key.
func checkDigestFromCoefficients(t *testing.T, pk *plonkish.ProvingKey) {
	t.Helper()
	recommit := func(cols [][]ff.Element) []curve.Affine {
		out := make([]curve.Affine, len(cols))
		for i, vals := range cols {
			p := append([]ff.Element(nil), vals...)
			pk.Domain.IFFT(p)
			out[i] = pk.Scheme.Commit(p)
		}
		return out
	}
	vk := *pk.VK
	vk.FixedCommits, vk.SigmaCommits = recommit(pk.FixedVals), recommit(pk.SigmaVals)
	if !bytes.Equal(vk.Digest(), pk.VK.Digest()) {
		t.Fatal("VK digest differs from the digest over coefficient-basis commitments")
	}
}
