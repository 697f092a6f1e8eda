#!/usr/bin/env bash
# The repo's verification gate (ROADMAP.md): configure + build with
# warnings-as-errors, run the tier-1 ctest label (twice: once on the
# dispatched SIMD kernels, once forced to the scalar reference — the
# determinism contract says both runs must pass identically), run the
# kernel-equivalence suite under AddressSanitizer (the SIMD tails and
# unaligned loads are exactly where out-of-bounds reads would hide),
# then smoke the perf-regression tooling end to end — a quick bench
# emits its BENCH_*.json run report and parsgd_compare self-diffs it (a
# report can never regress against itself, so any non-zero exit is a
# tooling bug).
#
#   scripts/check.sh            # uses ./build (+ ./build-asan)
#   BUILD_DIR=out scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
cmake -B "$BUILD_DIR" -S . -DPARSGD_WERROR=ON
cmake --build "$BUILD_DIR" -j
ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure -j"$(nproc)"
# Same gate with the SIMD dispatch pinned to the scalar reference: any
# divergence between the two runs is a kernel-equivalence bug.
PARSGD_FORCE_SCALAR=1 \
    ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure -j"$(nproc)"
# The example-block layouts (the MLP driver's blocks, the dense margins)
# are cut per lane count. An AVX-512 host runs lanes = 16 above and
# lanes = 1 forced scalar; pin AVX2 once to cover lanes = 8 there too.
PARSGD_KERNEL_VARIANT=avx2 "$BUILD_DIR/tests/test_models"
PARSGD_KERNEL_VARIANT=avx2 "$BUILD_DIR/tests/test_linalg"

# Resilience lane (DESIGN.md §11): the two recovery paths end to end
# through the CLI at tier-1 speed. Dense covtype LR at alpha = 1000
# diverges on its own: the watchdog must roll back epoch 3 and the run
# must finish undiverged (parsgd_cli exits nonzero on divergence). A
# 4-epoch run checkpointing every epoch stands in for an interrupted
# one; a --resume run to 8 epochs must pick it up at epoch 4 and reach
# the same best loss as an uninterrupted 8-epoch run.
"$BUILD_DIR/examples/parsgd_cli" --task=LR --dataset=covtype --scale=50 \
    --engine=sync/cpu-seq/dense --alpha=1000 --epochs=8 --watchdog \
    | grep "recovery: rolled back epoch 3" >/dev/null
resume_tmp="$(mktemp -d)"
resume_run() {
  "$BUILD_DIR/examples/parsgd_cli" --task=LR --dataset=w8a --scale=50 \
      --engine=sync/cpu-seq/sparse --alpha=0.5 "$@"
}
resume_run --epochs=4 --checkpoint="$resume_tmp/ck" --checkpoint-every=1 \
    >/dev/null
resume_run --epochs=8 --resume="$resume_tmp/ck" >"$resume_tmp/resumed.out"
grep "resuming from .* at epoch 4" "$resume_tmp/resumed.out" >/dev/null
resume_run --epochs=8 >"$resume_tmp/plain.out"
resumed_best="$(grep "best loss" "$resume_tmp/resumed.out")"
plain_best="$(grep "best loss" "$resume_tmp/plain.out")"
if [ -z "$plain_best" ] || [ "$resumed_best" != "$plain_best" ]; then
  echo "check.sh: resumed '$resumed_best' != uninterrupted '$plain_best'" >&2
  exit 1
fi
rm -rf "$resume_tmp"

# Observability lane (DESIGN.md §18): the disabled-overhead gate first —
# bench_micro_telemetry exits nonzero when the kOff hot path costs more
# than 1% over an uninstrumented run — then the time-attribution path end
# to end: an attributed run writes its report and parsgd_compare
# --attribute self-diffs it (a report can never regress against itself,
# and self-attribution must resolve cleanly, so any non-zero exit is a
# tooling bug). The overhead gate is a timing measurement on a possibly
# still-busy CI host, so it gets min-of-more samples and a bounded
# retry: a real regression fails all three attempts, scheduler noise
# does not.
overhead_ok=0
for attempt in 1 2 3; do
  if "$BUILD_DIR/bench/bench_micro_telemetry" --repeats=11; then
    overhead_ok=1
    break
  fi
  echo "check.sh: overhead gate attempt $attempt failed; retrying"
done
[ "$overhead_ok" -eq 1 ]
obs_tmp="$(mktemp -d)"
"$BUILD_DIR/examples/parsgd_cli" --task=LR --dataset=w8a --scale=50 \
    --engine="async/cpu-par/sparse:batch=64" --alpha=0.5 --epochs=8 \
    --attribute --report-out="$obs_tmp/run.json" >/dev/null
"$BUILD_DIR/examples/parsgd_compare" "$obs_tmp/run.json" "$obs_tmp/run.json" \
    --require-same-sha --attribute
rm -rf "$obs_tmp"

# Kernel-equivalence suite under ASan+UBSan (separate build tree so the
# main gate binaries stay uninstrumented). The task-graph executor runs
# there too (lifetime/overflow bugs in lane queues and scratch buffers).
# The attribution suite joins both lanes: its runs read the pool's wait
# histograms while pool workers record into them, and the telemetry
# exporters render snapshots while instruments are live.
# The conflict accounting runs under ASan too: the asyncsim conflict
# ledger indexes flat per-line arrays by model coordinate, and the gpusim
# warp instructions fill fixed per-lane arrays. The linalg suite joins
# both lanes: the transposed products index through the lazily built band
# layout of a CSR matrix, which threads may request at once, and each
# band's owner scatters into its band-local accumulators; the dense
# margins read the lazily built example blocks of a dense matrix (built
# once under concurrent first requests, dropped on copy and write), and
# each transposed-gemv task folds its panels into a stack accumulator.
# The engine-spec suite joins the ASan lane for its seeded mutation run:
# thousands of malformed spec strings through the parse and format paths.
# The libsvm reader joins it for the same reason (seeded mutants of a
# small corpus), and the engine suite joins it so the carried margin
# pass of a sync epoch (DESIGN.md §9), which writes per-example
# coefficients from pool workers, runs under both sanitizers. The
# resilience suite joins it for the checkpoint loader's seeded mutation
# run: corrupt files through every count and payload read. The report suite joins it
# for the report reader's seeded mutation run: forged and corrupt JSON
# through the parser and every checked integer conversion. The model
# suite joins both lanes for the blocked MLP driver: its block tails,
# strided row pointers and reads of a dense matrix's cached example
# blocks run here, and its loss blocks run on pool workers with
# thread-local scratch under TSan. The study suite joins both lanes:
# a Study runs a group's async step searches as one concurrent batch over
# shared group state, the GPU Hogwild warp replay memo among it. The data,
# CSR and transform suites join both lanes: the generator and the MLP
# view sort, fill and label rows of shared arrays on pool workers, and
# adopt the arrays through the validating CsrMatrix constructor.
ASAN_BUILD_DIR="${ASAN_BUILD_DIR:-${BUILD_DIR}-asan}"
cmake -B "$ASAN_BUILD_DIR" -S . -DPARSGD_WERROR=ON -DPARSGD_SANITIZE=address
cmake --build "$ASAN_BUILD_DIR" -j --target test_kernels --target test_task_graph \
    --target test_attribution --target test_telemetry \
    --target test_asyncsim --target test_gpusim \
    --target test_linalg --target test_engine_spec --target test_io \
    --target test_engines --target test_resilience --target test_report \
    --target test_models --target test_study \
    --target test_data --target test_csr_matrix --target test_transform
"$ASAN_BUILD_DIR/tests/test_linalg"
"$ASAN_BUILD_DIR/tests/test_engine_spec"
"$ASAN_BUILD_DIR/tests/test_io"
"$ASAN_BUILD_DIR/tests/test_engines"
"$ASAN_BUILD_DIR/tests/test_resilience"
"$ASAN_BUILD_DIR/tests/test_report"
"$ASAN_BUILD_DIR/tests/test_kernels"
"$ASAN_BUILD_DIR/tests/test_task_graph"
"$ASAN_BUILD_DIR/tests/test_attribution"
"$ASAN_BUILD_DIR/tests/test_telemetry"
"$ASAN_BUILD_DIR/tests/test_asyncsim"
"$ASAN_BUILD_DIR/tests/test_gpusim"
"$ASAN_BUILD_DIR/tests/test_models"
"$ASAN_BUILD_DIR/tests/test_study"
"$ASAN_BUILD_DIR/tests/test_data"
"$ASAN_BUILD_DIR/tests/test_csr_matrix"
"$ASAN_BUILD_DIR/tests/test_transform"

# The executor's concurrency (work-stealing deques, park/wake protocol,
# atomic in-degree release) under ThreadSanitizer, plus the resilience
# suite's resumed runs on a 4-worker task-graph pool.
# The engine suite joins it: concurrent step search runs whole training
# runs at once over one shared Model/TrainData, each on a private
# executor with its metric log. The model suite joins it for the MLP
# loss pass, whose blocks run on pool workers with thread-local scratch,
# and for the MLP and linear dense loss passes, whose pool workers may
# all request a dense matrix's example blocks before the first build is
# done. The data suite joins it for the generator's and the MLP view's
# row passes on pools of 1 and 3 workers (with the CSR and transform
# suites they build on).
TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-${BUILD_DIR}-tsan}"
cmake -B "$TSAN_BUILD_DIR" -S . -DPARSGD_WERROR=ON -DPARSGD_SANITIZE=thread
cmake --build "$TSAN_BUILD_DIR" -j --target test_task_graph --target test_thread_pool \
    --target test_resilience \
    --target test_attribution --target test_telemetry --target test_engines \
    --target test_linalg --target test_models --target test_study \
    --target test_data --target test_csr_matrix --target test_transform
"$TSAN_BUILD_DIR/tests/test_linalg"
"$TSAN_BUILD_DIR/tests/test_task_graph"
"$TSAN_BUILD_DIR/tests/test_thread_pool"
"$TSAN_BUILD_DIR/tests/test_resilience"
"$TSAN_BUILD_DIR/tests/test_attribution"
"$TSAN_BUILD_DIR/tests/test_telemetry"
"$TSAN_BUILD_DIR/tests/test_engines"
"$TSAN_BUILD_DIR/tests/test_models"
"$TSAN_BUILD_DIR/tests/test_study"
"$TSAN_BUILD_DIR/tests/test_data"
"$TSAN_BUILD_DIR/tests/test_csr_matrix"
"$TSAN_BUILD_DIR/tests/test_transform"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
"$BUILD_DIR/bench/bench_fig5_hwspec" --report-dir="$tmp" >/dev/null
"$BUILD_DIR/examples/parsgd_compare" \
    "$tmp/BENCH_fig5_hwspec.json" "$tmp/BENCH_fig5_hwspec.json" \
    --require-same-sha
echo "check.sh: tier-1 (simd + scalar) + avx2 models/linalg" \
     "+ resilience lane (watchdog" \
     "loss-spike rollback, stop/resume round trip)" \
     "+ observability lane (overhead gate, --attribute)" \
     "+ ASan linalg/kernels/graph/attribution/telemetry" \
     "/asyncsim/gpusim/engine-spec/io/engines/resilience/report" \
     "/models/study/data/csr/transform" \
     "+ TSan linalg/graph/pool/resilience/attribution/telemetry/engines" \
     "/models/study/data/csr/transform" \
     "+ regression smoke OK"
