# Standard entry points for local development and CI.
#
#   make ci          gofmt check + vet + build + full test suite + race
#                    detector on the concurrency-sensitive packages +
#                    386/arm64 cross checks + short fuzz pass on the
#                    untrusted-input decoders and kernels + kernel
#                    benchmark smoke run (what CI runs)
#   make fmt         fail if any Go file is not gofmt-formatted (lists them)
#   make test        full test suite only
#   make race        race detector on the proving engine packages
#   make fuzz-smoke  each fuzz target briefly, from the committed corpora
#   make bench       the repo-root kernel benchmarks (bench_test.go), once
#                    each, then the MSM kernels' per-scalar and per-addition
#                    costs (ns/scalar, flushes/op, and ns/add per AddRun
#                    kernel by name: generic, adx, ifma), the block
#                    kernels' ns per row (product, sum) and ns per butterfly
#                    beside MontMul's, and the NTTs they run (BenchmarkFFT,
#                    BenchmarkCosetPartFFT)
#   make bench-smoke kernel benchmarks once each, so bench code can't rot
#   make cross       the field, curve and polynomial tests, the pinned
#                    proof and circuit digests and the untrusted-bytes
#                    decoder tests as 386 binaries (the generic field
#                    kernel, 32-bit int), and an arm64 vet + build
#   make trace-smoke fit the cost model from traced proves, prove once more
#                    with tracing — compiled, then loaded from a key store —
#                    and gate both trace reports on cost-model accuracy
#                    (trace-check -max-rel-err)
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
#   make examples-smoke the five README examples end to end; each stops on
#                    an error with log.Fatal

GO ?= go

# Packages whose tests exercise the parallel proving engine; these run
# under the race detector in CI.
RACE_PKGS = ./internal/parallel/ ./internal/poly/ ./internal/curve/ ./internal/pcs/ ./internal/plonkish/

# Untrusted-input fuzz targets (DESIGN.md §9) as package:Target pairs; `go
# test` allows one -fuzz pattern per invocation, so fuzz-smoke loops. The
# list must name every `func Fuzz*` in a *_test.go file: fuzz-smoke checks
# that first, so a renamed or new target cannot silently drop out.
# Minimizing a new input is capped at 20 runs: the default 60 s cap would
# spend the whole fuzz time on one input.
FUZZ_TARGETS = \
	./internal/core/:FuzzDecodeArtifact \
	./internal/pcs/:FuzzImportSRS \
	./internal/plonkish/:FuzzKeyMaterialUnmarshal \
	./internal/plonkish/:FuzzProgramMatchesTree \
	./internal/plonkish/:FuzzProofUnmarshal \
	./internal/plonkish/:FuzzVerify \
	./internal/model/:FuzzModelLoad \
	./internal/curve/:FuzzPointSetBytes \
	./internal/curve/:FuzzGLVDecompose \
	./internal/limbs/:FuzzAddRun \
	./internal/limbs/:FuzzBlockKernels \
	./internal/limbs/:FuzzButterfly \
	./internal/limbs/:FuzzMontMul \
	./zkml/:FuzzImportProof
FUZZTIME ?= 5s

.PHONY: ci fmt vet build test race cross fuzz-smoke bench bench-smoke trace-smoke daemon-smoke shard-smoke benchmark benchmark-smoke benchmark-compare lint audit-smoke examples-smoke

ci: fmt vet lint build test race cross audit-smoke examples-smoke fuzz-smoke bench-smoke trace-smoke daemon-smoke shard-smoke benchmark-smoke

fuzz-smoke:
	@found=$$(grep -rE --include='*_test.go' '^func Fuzz' . | sed 's|^\(.*/\)[^/]*:func \(Fuzz[A-Za-z0-9_]*\).*|\1:\2|' | sort); \
	listed=$$(printf '%s\n' $(FUZZ_TARGETS) | sort); \
	if [ "$$found" != "$$listed" ]; then \
		echo "fuzz-smoke: FUZZ_TARGETS does not match the Fuzz* functions in *_test.go files:"; \
		for t in $$found; do echo "$$listed" | grep -qxF "$$t" || echo "  defined but not listed: $$t"; done; \
		for t in $$listed; do echo "$$found" | grep -qxF "$$t" || echo "  listed but not defined: $$t"; done; \
		exit 1; \
	fi
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%:*}; target=$${t#*:}; \
		echo "fuzz-smoke: $$pkg $$target ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 20x $$pkg || exit 1; \
	done

fmt:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# 386 has no assembly field kernel, so these runs take the generic one and
# the portable block kernels (the quotient program's evaluator and every
# NTT); the unchanged proof digests show both kernels produce the same
# proof bytes, and the Freivalds gadget tests fold negative int64 operands into phase-1
# cells through ff.NewInt64 on it. Its 32-bit int is also where a length
# prefix >= 2^31 turns negative, so the decoders of untrusted bytes run
# there too, and so do the pcs setup-record tests (growth, install, the
# comb and the Lagrange derivations on the generic kernel) and the batch
# commit tests, which run the generic batch-addition run (limbs.AddRun)
# through every commit path. The arm64 vet + build keeps the !amd64 files
# compiling.
cross:
	GOARCH=386 $(GO) test ./internal/limbs/ ./internal/ff/ ./internal/curve/ ./internal/poly/
	GOARCH=386 $(GO) test -run 'TestSeededProofsPinned|TestQuotientPiecesMatchReference|TestProofDeserializationRejectsGarbage' ./internal/plonkish/
	GOARCH=386 $(GO) test -run 'TestSRSRoundTrip|TestImportedPowersCommitLagrange|TestSRSImportRejectsCorruption|TestLagrangeFirstUseBuildsOnce|TestCommitTableSetupWorkAccounting|TestInstallSRSKeepsNoCallerArray|TestCommitBatchMatchesPerVector|TestCommitBatchBuildsOnce' ./internal/pcs/
	GOARCH=386 $(GO) test -run TestDecodeArtifactRejectsCorruption ./internal/core/
	GOARCH=386 $(GO) test -short -run 'TestCircuitsPinned|TestFreivalds' ./internal/gadgets/
	GOARCH=386 $(GO) test -run TestImportProofRejectsHugeCounts ./zkml/
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .
	$(GO) test -run '^$$' -bench 'BenchmarkAddRun|BenchmarkMSM|BenchmarkFixedBaseMSM' ./internal/limbs/ ./internal/curve/
	$(GO) test -run '^$$' -bench 'BenchmarkMontMul|BenchmarkBlockKernels|BenchmarkButterflies|BenchmarkFFT|BenchmarkCosetPartFFT' ./internal/limbs/ ./internal/poly/

# One iteration of the kernel benchmarks: compiles and runs the bench code
# without measuring anything meaningful. -short keeps the commitment
# benchmarks at sizes that don't grow the shared SRS past CI budgets.
bench-smoke:
	$(GO) test -run '^$$' -short -bench 'BenchmarkMontMul|BenchmarkAddSub|BenchmarkAddRun|BenchmarkBlockKernels|BenchmarkButterflies|BenchmarkFFT|BenchmarkCosetPartFFT|BenchmarkMSM|BenchmarkScalarMul|BenchmarkFixedBaseMSM|BenchmarkCommit|BenchmarkQuotient|BenchmarkIPA|BenchmarkOptimize' -benchtime=1x . ./internal/limbs/ ./internal/poly/ ./internal/curve/ ./internal/pcs/ ./internal/plonkish/

# Fit the cost model from traced proves (a fitted calibration), prove once more
# with tracing — compiled into a fresh key store, then loaded from it — and
# check both reports: the schema parses, every pipeline stage is present, the
# cost-model comparison is populated, and — the estimator-accuracy gate — the
# fitted model's total |rel_err| stays within the threshold (DESIGN.md
# §11/§12). The unfitted static units sat at -0.14 … -0.32 over three runs.
TRACE_MAX_REL_ERR ?= 0.5
trace-smoke:
	@tmp=$$(mktemp -t zkml-trace.XXXXXX.json); stored=$$(mktemp -t zkml-trace.XXXXXX.json); \
	calib=$$(mktemp -t zkml-calib.XXXXXX.json); keys=$$(mktemp -d -t zkml-keys.XXXXXX); \
	$(GO) run ./cmd/zkml calibrate -out $$calib && \
	ZKML_CALIBRATION=$$calib $(GO) run ./cmd/zkml prove -model mnist -scale-bits 5 -lookup-bits 9 -max-cols 16 -keys $$keys -trace $$tmp && \
	$(GO) run ./cmd/zkml trace-check -in $$tmp -max-rel-err $(TRACE_MAX_REL_ERR) && \
	ZKML_CALIBRATION=$$calib $(GO) run ./cmd/zkml prove -model mnist -scale-bits 5 -lookup-bits 9 -max-cols 16 -keys $$keys -trace $$stored && \
	$(GO) run ./cmd/zkml trace-check -in $$stored -max-rel-err $(TRACE_MAX_REL_ERR); \
	st=$$?; rm -rf $$tmp $$stored $$calib $$keys; exit $$st

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

# The README's examples, run as a user would: custom-model authors a model
# and takes it through the JSON format (Parse, then Compile), biometric
# checks a proof against the float reference (RunFloat). Each example exits
# nonzero through log.Fatal on any error.
EXAMPLES = quickstart audit credit-score biometric custom-model
examples-smoke:
	@for e in $(EXAMPLES); do \
		echo "examples-smoke: $$e"; \
		$(GO) run ./examples/$$e || exit 1; \
	done

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
