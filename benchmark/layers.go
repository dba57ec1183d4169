package main

// layerMetric names one per-layer metric of the traced run. Layer is the
// module whose public calls the harness times; Moves is the end-to-end
// metric the number should move, written down before measuring so a later
// change can be checked against its prediction. BENCHMARK.json carries the
// same names, units and directions; a test keeps the two equal.
type layerMetric struct {
	Name   string
	Unit   string
	Better string
	Layer  string
	Moves  string
}

const (
	lower  = "lower"
	higher = "higher"
)

var perLayer = []layerMetric{
	{"ff_mul_ns", "ns", lower, "ff", "prove_s everywhere (scaling factor)"},
	{"ff_inv_ns", "ns", lower, "ff", "prove_s everywhere (scaling factor)"},

	{"ntt_s", "s", lower, "poly", "prove_s via stage_commit_s; setup_s via keygen_s"},
	{"coset_ntt_s", "s", lower, "poly", "prove_s via stage_quotient_s"},
	{"ntt_ext_s", "s", lower, "poly", "prove_s via stage_quotient_s; most on vgg-kzg"},
	{"coset_ntt_ext_s", "s", lower, "poly", "prove_s via stage_quotient_s; most on vgg-kzg"},
	{"ffts", "count", lower, "poly", "prove_s"},

	{"msm_var_s", "s", lower, "curve", "prove_s and verify_s on mnist-ipa; not the *-kzg workloads"},
	{"msm_fixed_s", "s", lower, "curve", "prove_s on the *-kzg workloads"},
	{"table_build_s", "s", lower, "curve", "setup_s and peak_rss_mb"},
	{"msms", "count", lower, "curve", "prove_s"},
	{"fixed_msms", "count", higher, "curve", "prove_s: the share of msms a table serves"},

	{"commit_cold_s", "s", lower, "pcs", "setup_s (the warm-up prove pays it once)"},
	{"commit_warm_s", "s", lower, "pcs", "prove_s via stage_commit_s, stage_lookup_s, stage_quotient_s"},
	{"open_s", "s", lower, "pcs", "prove_s via stage_open_s; most on mnist-ipa, least on mnist-kzg"},
	{"pcs_verify_s", "s", lower, "pcs", "verify_s; most on mnist-ipa"},
	{"commit_table_builds", "count", lower, "pcs", "prove_s: warm proves must show 0"},
	{"commit_table_hits", "count", higher, "pcs", "prove_s"},

	{"keygen_s", "s", lower, "plonkish", "setup_s"},
	{"plonkish_prove_s", "s", lower, "plonkish", "prove_s"},
	{"plonkish_verify_s", "s", lower, "plonkish", "verify_s"},
	{"stage_commit_s", "s", lower, "plonkish", "prove_s"},
	{"stage_lookup_s", "s", lower, "plonkish", "prove_s"},
	{"stage_permutation_s", "s", lower, "plonkish", "prove_s"},
	{"stage_quotient_s", "s", lower, "plonkish", "prove_s"},
	{"stage_open_s", "s", lower, "plonkish", "prove_s"},
	{"stage_open_share", "ratio", lower, "plonkish", "separates the backends: high on mnist-ipa, low on mnist-kzg"},

	{"synthesize_s", "s", lower, "model+gadgets+layers", "prove_s (small share); setup_s (once per optimizer candidate)"},
	{"rows_used", "count", lower, "model+gadgets+layers", "prove_s through k"},
	{"k", "count", lower, "model+gadgets+layers", "prove_s, setup_s, peak_rss_mb"},
	{"advice_cols", "count", lower, "model+gadgets+layers", "prove_s, proof_bytes"},
	{"lookups", "count", lower, "model+gadgets+layers", "prove_s via stage_lookup_s"},
	{"constraints", "count", lower, "model+gadgets+layers", "prove_s via stage_quotient_s"},

	{"optimize_s", "s", lower, "core", "setup_s; most on vgg-kzg"},
	{"candidates_evaluated", "count", lower, "core", "setup_s via optimize_s"},
	{"artifact_encode_s", "s", lower, "core", "store_save_s"},
	{"artifact_decode_s", "s", lower, "core", "setup_s on serve-gpt2-kzg"},

	// Signed: (predicted - measured) / measured under the pinned calibration.
	// Tracked so cost-model work has a baseline; closer to 0 is better.
	{"cost_rel_err", "ratio", lower, "costmodel", "none"},
	{"cost_rel_err_commit", "ratio", lower, "costmodel", "none"},
	{"cost_rel_err_lookup", "ratio", lower, "costmodel", "none"},
	{"cost_rel_err_permutation", "ratio", lower, "costmodel", "none"},
	{"cost_rel_err_quotient", "ratio", lower, "costmodel", "none"},
	{"cost_rel_err_open", "ratio", lower, "costmodel", "none"},

	{"export_s", "s", lower, "zkml", "prove_s"},
	{"import_s", "s", lower, "zkml", "verify_s"},
	{"store_save_s", "s", lower, "zkml", "none (fixture)"},
	{"store_load_s", "s", lower, "zkml", "setup_s on serve-gpt2-kzg"},
	{"store_load_verifier_s", "s", lower, "zkml", "set-up of a verify-only user"},
	{"store_load_msms", "count", lower, "zkml", "setup_s on serve-gpt2-kzg: a load must do 0"},

	// The zkmld metrics are 0 on the in-process workloads: no HTTP on the path.
	{"http_overhead_s", "s", lower, "zkmld", "prove_s on serve-gpt2-kzg only"},
	{"daemon_start_s", "s", lower, "zkmld", "setup_s on serve-gpt2-kzg"},
	{"daemon_load_s", "s", lower, "zkmld", "setup_s on serve-gpt2-kzg"},
	{"first_prove_s", "s", lower, "zkmld", "setup_s on serve-gpt2-kzg"},
	{"preload_setup_work", "count", lower, "zkmld", "setup_s on serve-gpt2-kzg: a restart from the store must do 0"},
	{"serve_setup_work", "count", lower, "zkmld", "prove_s on serve-gpt2-kzg: warm requests must do 0"},
	{"rejected_429", "count", lower, "zkmld", "failed ops on serve-gpt2-kzg"},
	{"timeouts_504", "count", lower, "zkmld", "failed ops on serve-gpt2-kzg"},

	{"traced_prove_s", "s", lower, "waterfall", "the traced request the prove waterfall splits"},
	{"unattributed_s", "s", lower, "waterfall", "traced_prove_s minus every attributed part"},
	{"unattributed_share", "ratio", lower, "waterfall", "must stay within 0.10 of 0"},
	{"trace_overhead", "ratio", lower, "waterfall", "traced prove / untraced median - 1"},
	{"traced_setup_s", "s", lower, "waterfall", "the set-up the set-up waterfall splits"},
	{"warmup_prove_s", "s", lower, "waterfall", "setup_s"},
	{"setup_unattributed_s", "s", lower, "waterfall", "traced_setup_s minus every attributed part"},
}
