// EngineSpec — one declarative descriptor for every configuration of the
// paper's Fig. 1 cube: update strategy x architecture x data layout x
// batching x thread count x calibration preset, plus the resilience and
// telemetry options.
//
// A spec has a canonical string form, e.g.
//   async/cpu-par/sparse
//   sync/gpu/dense:batch=64,calib=mlp
// and parse_spec/format_spec round-trip: for every spec s obtained from
// parse_spec, parse_spec(format_spec(s)) == s. Every option value is a
// non-negative count or a keyword, so the round trip is exact.
//
// make_engine(spec, ctx) constructs the engine of the spec's family
// ("sync/cpu-par", "async/gpu", ...) from one fixed table of the cube's
// six families (DESIGN.md §10).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "sgd/engine.hpp"
#include "sgd/timing.hpp"
#include "telemetry/session.hpp"

namespace parsgd {

class ThreadPool;
struct HogwildReplayMemo;

enum class Layout { kSparse, kDense };
const char* to_string(Layout l);

/// Calibration presets (EXPERIMENTS.md "calibration"): the empirical
/// ViennaCL-driver constants layered on the mechanistic cost model.
///  * kLinear — the LR/SVM Table II/III constants (engine defaults);
///  * kMlp    — dispatch-fee dominated MLP constants (Fig. 6 / Table III);
///  * kNone   — raw mechanistic model (ablation benches).
enum class Calibration { kLinear, kMlp, kNone };
const char* to_string(Calibration c);

/// Declarative description of one engine configuration. Default-constructed
/// fields mean "the family's default"; format_spec omits them.
struct EngineSpec {
  Update update = Update::kSync;
  Arch arch = Arch::kCpuSeq;
  Layout layout = Layout::kSparse;
  /// Examples per model update. 0 = family default (sync: one full-batch
  /// update per epoch; async: incremental Hogwild). >1 = synchronized
  /// mini-batch (sync) or Hogbatch (async).
  std::size_t batch = 0;
  /// Logical threads for parallel-CPU configurations. 0 = take the count
  /// from EngineContext::cpu_threads; cpu-seq always runs 1.
  int threads = 0;
  Calibration calibration = Calibration::kLinear;
  /// Async gradient-delay override in units (0 = auto; see AsyncSimOptions).
  std::size_t delay_units = 0;
  /// det=on|off: pin the order-sensitive reductions of the CPU microkernel
  /// layer to the scalar reference order so trajectories are bit-identical
  /// run-to-run and to the pre-SIMD seed (CpuBackendOptions::deterministic).
  /// Default on — tests and regression gates rely on exact trajectories;
  /// benches pass det=off to measure the fully vectorized reductions.
  bool deterministic = true;
  /// ViennaCL GEMM parallelization threshold for sync CPU engines.
  std::size_t gemm_parallel_threshold = 5000;
  /// resilience=off|watchdog (DESIGN.md §11): whether runs of this spec
  /// train under the divergence watchdog (TrainOptions::watchdog).
  /// Default off — the plain epoch loop; format_spec omits it.
  bool watchdog = false;
  /// Telemetry mode (telemetry= spec key, DESIGN.md §12). When the
  /// context has no session and this is not kOff, make_engine creates a
  /// standalone session owned by the engine (Engine::telemetry()).
  telemetry::TelemetryMode telemetry = telemetry::TelemetryMode::kOff;

  /// Family key: update/arch, e.g. "sync/cpu-par" or "async/gpu".
  std::string family() const;

  bool operator==(const EngineSpec&) const = default;
};

/// Parses a spec string; throws CheckError with the offending token on
/// malformed input. try_parse_spec is the non-throwing variant; the
/// two-argument overload reports *why* parsing failed (the offending
/// token) into `error` so drivers can fail loudly on mistyped keys.
EngineSpec parse_spec(const std::string& text);
std::optional<EngineSpec> try_parse_spec(const std::string& text);
std::optional<EngineSpec> try_parse_spec(const std::string& text,
                                         std::string* error);

/// Canonical string form (defaults omitted, options in fixed order).
std::string format_spec(const EngineSpec& spec);

/// The shared run state every engine is built from: model, training data,
/// paper-scale extrapolation context, the injected execution thread pool,
/// and the run seed. Engines keep references into the context — it must
/// outlive every engine made from it.
struct EngineContext {
  const Model* model = nullptr;
  TrainData data;
  ScaleContext scale;
  /// Default logical thread count for parallel-CPU configurations
  /// (the paper machine's 56); EngineSpec::threads overrides per spec.
  int cpu_threads = 56;
  /// Execution pool injected into every CPU consumer (linalg backends,
  /// mini-batch task graphs). nullptr = the process-global pool.
  ThreadPool* pool = nullptr;
  std::uint64_t seed = 42;
  /// Shared telemetry session installed into every engine made from this
  /// context (so a Study's engines all report into one registry). When
  /// null, EngineSpec::telemetry != off makes make_engine create a
  /// standalone per-engine session instead.
  std::shared_ptr<telemetry::TelemetrySession> telemetry;
  /// GPU Hogwild warp replay shared by every engine made from this
  /// context (a Study group's); null = each engine replays its own.
  HogwildReplayMemo* hogwild_replay = nullptr;
};

/// Builds the context for a generated dataset: train views, scale context
/// for `layout`, defaults elsewhere. `ds` and `model` must outlive it.
EngineContext make_engine_context(const Dataset& ds, const Model& model,
                                  Layout layout);

/// Constructs the engine for `spec` from `ctx`. Throws CheckError for a
/// dense layout without a dense materialization.
std::unique_ptr<Engine> make_engine(const EngineSpec& spec,
                                    const EngineContext& ctx);

/// The canonical (default-option) spec of each of the cube's six
/// families, sorted by family key: async/{cpu-par,cpu-seq,gpu}, then
/// sync/{cpu-par,cpu-seq,gpu}.
std::vector<EngineSpec> registered_specs();

}  // namespace parsgd
