// Package gadgets implements ZKML's gadget library (paper §5): low-level
// constraint templates — arithmetic ops, dot products, variable division,
// max, pointwise non-linearities via lookup tables, bit-decomposition
// baselines, multi-row variants, and Freivalds-checked matrix products —
// plus the Builder that lays gadget invocations out into a Plonkish grid
// row by row.
//
// Every gadget follows the paper's single-row design by default: each
// constraint spans one row; each row is owned by exactly one gadget kind,
// signalled by that kind's selector column. Many gadgets have multiple
// interchangeable implementations (e.g. pairwise add as a dedicated gate or
// routed through the dot-product gadget; ReLU as a lookup or as a bit
// decomposition); the optimizer chooses among them per model.
package gadgets

import (
	"fmt"

	"repro/internal/fixedpoint"
)

// DotStrategy selects how large dot products are aggregated (paper §5.2).
type DotStrategy string

const (
	// DotBias chains partial dot products through the bias slot.
	DotBias DotStrategy = "bias"
	// DotSum aggregates partial dot products with the sum gadget.
	DotSum DotStrategy = "sum"
)

// ArithStrategy selects how elementwise arithmetic is implemented.
type ArithStrategy string

const (
	// ArithDedicated uses dedicated add/sub/mul/square gates (many ops per
	// row).
	ArithDedicated ArithStrategy = "dedicated"
	// ArithViaDot routes every arithmetic op through the dot-product
	// gadget (one op per row; the "fixed gadget set" ablation of Table 11).
	ArithViaDot ArithStrategy = "viadot"
)

// ReLUStrategy selects the ReLU implementation.
type ReLUStrategy string

const (
	// ReLULookup uses a 2-cell lookup (paper §3, second representation).
	ReLULookup ReLUStrategy = "lookup"
	// ReLUDecomp uses the b+2-cell bit decomposition prior work uses
	// (paper §3, first representation; the BaselineCNN prover).
	ReLUDecomp ReLUStrategy = "decomp"
)

// Config is a logical layout: the gadget strategy choices plus the physical
// column count and numeric format.
type Config struct {
	NumCols int // advice columns
	FP      fixedpoint.Params
	Dot     DotStrategy
	Arith   ArithStrategy
	ReLU    ReLUStrategy
	// UseConstDot enables the fixed-column weight variants of the dot
	// gadget (dot_const / dot_const_acc), ZKML's optimized
	// implementation for linear layers with constant weights.
	UseConstDot bool
	// MultiAdd / MultiMax / MultiDot switch one gadget each to its two-row
	// variant (Table 13); ZKML's default is single-row constraints.
	MultiAdd, MultiMax, MultiDot bool
}

// DefaultConfig returns the configuration ZKML's optimizer starts from.
func DefaultConfig(numCols int, fp fixedpoint.Params) Config {
	return Config{
		NumCols:     numCols,
		FP:          fp,
		Dot:         DotBias,
		Arith:       ArithDedicated,
		ReLU:        ReLULookup,
		UseConstDot: true,
	}
}

// Validate checks that the configuration is usable.
func (c Config) Validate() error {
	if c.NumCols < 4 {
		return fmt.Errorf("gadgets: need at least 4 advice columns, got %d", c.NumCols)
	}
	if err := c.FP.Validate(); err != nil {
		return err
	}
	if c.ReLU == ReLUDecomp && c.NumCols < c.FP.LookupBits+2 {
		return fmt.Errorf("gadgets: ReLU decomposition needs %d columns (LookupBits+2), got %d",
			c.FP.LookupBits+2, c.NumCols)
	}
	switch c.Dot {
	case DotBias, DotSum:
	default:
		return fmt.Errorf("gadgets: unknown dot strategy %q", c.Dot)
	}
	switch c.Arith {
	case ArithDedicated, ArithViaDot:
	default:
		return fmt.Errorf("gadgets: unknown arith strategy %q", c.Arith)
	}
	switch c.ReLU {
	case ReLULookup, ReLUDecomp:
	default:
		return fmt.Errorf("gadgets: unknown relu strategy %q", c.ReLU)
	}
	return nil
}

// EnumerateConfigs returns the logical-layout candidates the optimizer
// considers for a given column count (paper §7.2: one implementation choice
// per layer family, applied uniformly — the pruning heuristic).
func EnumerateConfigs(numCols int, fp fixedpoint.Params) []Config {
	var out []Config
	for _, dot := range []DotStrategy{DotBias, DotSum} {
		for _, constDot := range []bool{true, false} {
			c := DefaultConfig(numCols, fp)
			c.Dot = dot
			c.UseConstDot = constDot
			out = append(out, c)
		}
	}
	return out
}
