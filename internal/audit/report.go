// Package audit statically analyzes a compiled Plonkish constraint system
// together with its synthesized circuit (fixed columns, witness grid, public
// values) and reports soundness and liveness defects before key generation:
// witness cells no constraint touches, gates and lookups whose selectors are
// never set, malformed copy-constraint wiring, lookup inputs whose
// statically-derivable range exceeds their table, gate degrees that
// overflow the quotient domain the prover will allocate, and columns opened
// at more rotations than their blinding rows hide. A mis-wired gadget
// proves nothing — silently — so the optimizer-selected layouts are audited
// in CI over every bundled model (see `zkml audit` and `make audit-smoke`).
package audit

import (
	"encoding/json"
	"fmt"
)

// Severity classifies a finding: errors are soundness or liveness defects
// (an audit-clean circuit must have none), warnings are layout smells that
// cannot break soundness on their own.
type Severity string

// Severities.
const (
	SeverityError Severity = "error"
	SeverityWarn  Severity = "warn"
)

// Code identifies a defect class.
type Code string

// Defect classes.
const (
	// CodeInvalidCS: the constraint system failed structural validation;
	// no deeper analysis ran.
	CodeInvalidCS Code = "invalid-cs"
	// CodeUnconstrainedCell: an assigned (nonzero) witness cell appears in
	// no active gate, no lookup, and no anchored copy cycle — the prover
	// could replace its value freely.
	CodeUnconstrainedCell Code = "unconstrained-cell"
	// CodeDeadGate: a gate whose every polynomial is statically zero on
	// every usable row (its selector column is never set) — the checks it
	// encodes are silently skipped.
	CodeDeadGate Code = "dead-gate"
	// CodeDeadLookup: a lookup whose selector is statically zero on every
	// usable row.
	CodeDeadLookup Code = "dead-lookup"
	// CodeDeadColumn: a column no gate, lookup, or copy references.
	CodeDeadColumn Code = "dead-column"
	// CodeOrphanCopy: a copy constraint from a cell to itself — a no-op
	// sigma entry that binds nothing.
	CodeOrphanCopy Code = "orphan-copy"
	// CodeDuplicateCopy: the same cell pair copied twice.
	CodeDuplicateCopy Code = "duplicate-copy"
	// CodeCopyOutOfDomain: a copy endpoint outside the usable row region.
	CodeCopyOutOfDomain Code = "copy-out-of-domain"
	// CodeUnboundPublic: a public-input cell bound into no anchored copy
	// cycle and read by no gate or lookup — the claimed output is not tied
	// to any constrained computation.
	CodeUnboundPublic Code = "unbound-public-input"
	// CodeLookupGap: a lookup input whose statically-derivable value range
	// exceeds the range its table column covers.
	CodeLookupGap Code = "lookup-range-gap"
	// CodeLookupTableOverflow: a lookup table that does not fit the usable
	// rows (or is empty).
	CodeLookupTableOverflow Code = "lookup-table-overflow"
	// CodeDegreeOverflow: a constraint whose degree exceeds the bound used
	// to size the quotient domain, or an extended domain with fewer parts
	// than the quotient has pieces.
	CodeDegreeOverflow Code = "degree-overflow"
	// CodeBlindingRows: a blinded column opened at more distinct rotations
	// than its blinding rows can hide (halo2's blinding_factors rule).
	CodeBlindingRows Code = "blinding-rows"
)

// Finding is one located defect.
type Finding struct {
	Code     Code     `json:"code"`
	Severity Severity `json:"severity"`
	// Col is the column coordinate ("advice[3]", "fixed[0]") when the
	// finding is column- or cell-scoped.
	Col string `json:"col,omitempty"`
	// Row is the cell row, or -1 when the finding is not cell-scoped.
	Row int `json:"row"`
	// Name is the gate or lookup name when the finding targets one.
	Name    string `json:"name,omitempty"`
	Message string `json:"message"`
}

// maxFindingsPerCode caps the findings reported per defect class; a single
// mis-wired gadget kind can leave thousands of cells unconstrained, and the
// report should stay readable (and bounded) while still counting them all.
const maxFindingsPerCode = 25

// Report is the machine-readable audit result for one compiled circuit.
type Report struct {
	Model   string `json:"model,omitempty"`
	Backend string `json:"backend,omitempty"`
	N       int    `json:"n"`
	K       int    `json:"k"`
	U       int    `json:"usable_rows"`
	// DMax is the degree bound the prover sizes the quotient domain with;
	// MaxConstraintDegree is the audit's independently computed maximum
	// over the full flattened constraint list (gates plus lookup and
	// permutation argument machinery). MaxConstraintDegree must never
	// exceed DMax.
	DMax                int `json:"d_max"`
	MaxConstraintDegree int `json:"max_constraint_degree"`
	// ExtN is the quotient (extended) domain size the prover will use.
	ExtN    int `json:"ext_n"`
	Gates   int `json:"gates"`
	Lookups int `json:"lookups"`
	Copies  int `json:"copies"`
	// CellsScanned counts the assigned witness cells the unconstrained-cell
	// pass examined (0 when no witness was supplied).
	CellsScanned int `json:"cells_scanned"`
	// WitnessAudited / FixedAudited record whether the witness grid and
	// fixed-column values were available; without fixed values selector
	// activity is unknown and the dead-gate and lookup-range passes are
	// skipped, without a witness the unconstrained-cell pass is skipped.
	WitnessAudited bool `json:"witness_audited"`
	FixedAudited   bool `json:"fixed_audited"`

	Findings []Finding `json:"findings"`
	// Truncated counts findings dropped beyond maxFindingsPerCode, per code.
	Truncated map[string]int `json:"truncated,omitempty"`
}

// add appends a finding, truncating past the per-code cap. It reports
// whether the finding was recorded.
func (r *Report) add(f Finding) bool {
	n := 0
	for _, g := range r.Findings {
		if g.Code == f.Code {
			n++
		}
	}
	if n >= maxFindingsPerCode {
		if r.Truncated == nil {
			r.Truncated = map[string]int{}
		}
		r.Truncated[string(f.Code)]++
		return false
	}
	r.Findings = append(r.Findings, f)
	return true
}

// Errors returns the number of error-severity findings (including truncated
// ones).
func (r *Report) Errors() int { return r.count(SeverityError) }

// Warnings returns the number of warning-severity findings (including
// truncated ones).
func (r *Report) Warnings() int { return r.count(SeverityWarn) }

func (r *Report) count(sev Severity) int {
	n := 0
	sevOf := map[Code]Severity{}
	for _, f := range r.Findings {
		sevOf[f.Code] = f.Severity
		if f.Severity == sev {
			n++
		}
	}
	for code, dropped := range r.Truncated {
		if sevOf[Code(code)] == sev {
			n += dropped
		}
	}
	return n
}

// Clean reports whether the audit found no error-severity defects.
func (r *Report) Clean() bool { return r.Errors() == 0 }

// JSON renders the report for machine consumption.
func (r *Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// Summary renders a one-line human summary.
func (r *Report) Summary() string {
	name := r.Model
	if name == "" {
		name = "circuit"
	}
	if r.Backend != "" {
		name += "/" + r.Backend
	}
	return fmt.Sprintf("%s: 2^%d rows, %d gates, %d lookups, %d copies, d_max %d (ext 2^%d): %d errors, %d warnings",
		name, r.K, r.Gates, r.Lookups, r.Copies, r.DMax, log2(r.ExtN), r.Errors(), r.Warnings())
}

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}
