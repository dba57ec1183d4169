# Standard entry points for local development and CI.
#
#   make ci          vet + build + full test suite + race detector on the
#                    concurrency-sensitive packages + short fuzz pass on the
#                    untrusted-input decoders + kernel benchmark smoke run
#                    (what CI runs)
#   make test        full test suite only
#   make race        race detector on the proving engine packages
#   make fuzz-smoke  each fuzz target briefly, from the committed corpora
#   make bench       prover benchmarks (see EXPERIMENTS.md)
#   make bench-smoke kernel benchmarks once each, so bench code can't rot
#   make trace-smoke fit the cost model from traced proves, prove once more
#                    with tracing, and gate the trace report on cost-model
#                    accuracy (trace-check -max-rel-err)
#   make daemon-smoke bring up the zkmld proving daemon, prove + verify over
#                    HTTP, and assert the warm path does zero keygen/SRS
#                    work while /stats surfaces the request trace
#   make shard-smoke sharded (layer-wise) mnist keygen + prove + verify end to
#                    end through the key store on both backends via the CLI,
#                    then the same store reused unsharded (DESIGN.md §16)
#   make benchmark-smoke two seconds of the serve-gpt2-kzg workload: zkmld
#                    restarted over a System.Save'd store must start from the
#                    store and serve golden-sized, checked proofs
#   make benchmark   the repository's one benchmark (BENCHMARK.json,
#                    benchmark/README.md): every workload end to end, every
#                    output checked -> $(BENCHMARK_OUT)
#   make benchmark-compare OLD=a.json NEW=b.json
#                    is NEW worse than OLD on any workload x metric, by the
#                    bounds the benchmark fixes (exit 1 if so)
#   make lint        zkml-lint over the whole module (fsio-atomic,
#                    determinism, panic-decode; see DESIGN.md §15)
#   make audit-smoke static circuit audit (`zkml audit`) of every bundled
#                    model on both backends; fails on any error finding

GO ?= go

# Packages whose tests exercise the parallel proving engine; these run
# under the race detector in CI.
RACE_PKGS = ./internal/parallel/ ./internal/poly/ ./internal/curve/ ./internal/pcs/ ./internal/plonkish/

# Untrusted-input fuzz targets (DESIGN.md §9) as package:Target pairs; `go
# test` allows one -fuzz pattern per invocation, so fuzz-smoke loops.
FUZZ_TARGETS = \
	./internal/plonkish/:FuzzProofUnmarshal \
	./internal/plonkish/:FuzzVerify \
	./internal/plonkish/:FuzzKeyMaterialUnmarshal \
	./internal/model/:FuzzModelLoad \
	./internal/curve/:FuzzPointSetBytes \
	./internal/curve/:FuzzGLVDecompose
FUZZTIME ?= 5s

.PHONY: ci vet build test race fuzz-smoke bench bench-smoke trace-smoke daemon-smoke shard-smoke benchmark benchmark-smoke benchmark-compare lint audit-smoke

ci: vet lint build test race audit-smoke fuzz-smoke bench-smoke trace-smoke daemon-smoke shard-smoke benchmark-smoke

fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%:*}; target=$${t#*:}; \
		echo "fuzz-smoke: $$pkg $$target ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
	done

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# One iteration of the kernel benchmarks: compiles and runs the bench code
# without measuring anything meaningful. -short keeps the commitment
# benchmarks at sizes that don't grow the shared SRS past CI budgets.
bench-smoke:
	$(GO) test -run '^$$' -short -bench 'BenchmarkFFT|BenchmarkMSM|BenchmarkFixedBaseMSM|BenchmarkCommit' -benchtime=1x ./internal/poly/ ./internal/curve/ ./internal/pcs/

# Fit the cost model from traced proves (calibration v2), prove once more
# with tracing, and check the report: the schema parses, every pipeline
# stage is present, the cost-model comparison is populated, and — the
# estimator-accuracy gate — the fitted model's total |rel_err| stays within
# the threshold (DESIGN.md §11/§12). The raw unfitted model sat at -0.83.
TRACE_MAX_REL_ERR ?= 0.5
trace-smoke:
	@tmp=$$(mktemp -t zkml-trace.XXXXXX.json); calib=$$(mktemp -t zkml-calib.XXXXXX.json); \
	$(GO) run ./cmd/zkml calibrate -fit -min-k 8 -max-k 12 -out $$calib && \
	ZKML_CALIBRATION=$$calib $(GO) run ./cmd/zkml prove -model mnist -scale-bits 5 -lookup-bits 9 -max-cols 16 -trace $$tmp && \
	$(GO) run ./cmd/zkml trace-check -in $$tmp -max-rel-err $(TRACE_MAX_REL_ERR); \
	st=$$?; rm -f $$tmp $$calib; exit $$st

# End-to-end daemon smoke check: start zkmld, prove and verify over HTTP,
# assert a warm prove does zero keygen/SRS-extension work (setup-work
# counters), a restart over the populated key store skips keygen entirely,
# and /stats reports the per-request trace.
daemon-smoke:
	$(GO) test -run 'TestDaemon' -count=1 -v ./cmd/zkmld/

# Repo-invariant linter (cmd/zkml-lint): atomic artifact writes, kernel
# determinism, panic-free untrusted decoders. Exits nonzero on any finding.
lint:
	$(GO) run ./cmd/zkml-lint ./...

# Static circuit audit of every bundled model on both backends at the fast
# CI circuit parameters. `zkml audit` exits nonzero on any error-severity
# finding, so a layout with an unconstrained cell, dead gate, orphan copy,
# lookup gap, or degree overflow fails CI here — before any proving runs.
audit-smoke:
	$(GO) run ./cmd/zkml audit -all -backend both -scale-bits 5 -lookup-bits 9 -max-cols 16

# Sharded proving smoke check (DESIGN.md §16), through the one key store:
# keygen splits mnist into 3 chunks and writes one .zka per chunk, prove
# loads them (no keygen) and proves the chunks in parallel, verify loads
# the verifying side only and checks the per-chunk proofs plus the boundary
# chain; then the same directory serves the unsharded circuit at -shards 1
# (a miss that fills it, then a hit). Both backends, exported proof bytes,
# fast CI circuit parameters.
SHARD_FLAGS = -model mnist -scale-bits 5 -lookup-bits 9 -max-cols 16
shard-smoke:
	@tmp=$$(mktemp -d -t zkml-shard.XXXXXX); z="$(GO) run ./cmd/zkml"; \
	for b in kzg ipa; do \
		echo "shard-smoke: backend $$b"; \
		$$z keygen $(SHARD_FLAGS) -backend $$b -shards 3 -out $$tmp/keys && \
		$$z prove $(SHARD_FLAGS) -backend $$b -shards 3 -keys $$tmp/keys -out $$tmp/proof.bin && \
		$$z verify $(SHARD_FLAGS) -backend $$b -shards 3 -keys $$tmp/keys -in $$tmp/proof.bin && \
		$$z prove $(SHARD_FLAGS) -backend $$b -shards 1 -keys $$tmp/keys -out $$tmp/proof.bin && \
		$$z verify $(SHARD_FLAGS) -backend $$b -shards 1 -keys $$tmp/keys -in $$tmp/proof.bin || { rm -rf $$tmp; exit 1; }; \
	done; rm -rf $$tmp

# The repository's benchmark (benchmark/README.md): all four workloads of
# BENCHMARK.json, fresh processes, every proof checked. Evidence for a
# performance claim is a pair of these files, or better the paired protocol
# the README describes; `make benchmark-compare` judges one pair.
BENCHMARK_OUT ?= benchmark-result.json
benchmark:
	$(GO) run ./benchmark run -seed 1 -out $(BENCHMARK_OUT)

# The guard that the daemon still serves byte-compatible proofs from a store
# written by System.Save: exits non-zero on any failed operation, which
# includes a daemon start that did not come from the store and a proof whose
# size or outputs miss the goldens.
benchmark-smoke:
	$(GO) run ./benchmark run -workload serve-gpt2-kzg -seconds 2

benchmark-compare:
	@test -n "$(OLD)" -a -n "$(NEW)" || { echo "usage: make benchmark-compare OLD=old.json NEW=new.json"; exit 2; }
	$(GO) run ./benchmark compare $(OLD) $(NEW)
