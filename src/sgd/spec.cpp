#include "sgd/spec.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "sgd/async_engine.hpp"
#include "sgd/sync_engine.hpp"

namespace parsgd {

const char* to_string(Layout l) {
  return l == Layout::kDense ? "dense" : "sparse";
}

const char* to_string(Calibration c) {
  switch (c) {
    case Calibration::kLinear: return "linear";
    case Calibration::kMlp: return "mlp";
    case Calibration::kNone: return "none";
  }
  return "?";
}

std::string EngineSpec::family() const {
  return std::string(to_string(update)) + "/" + to_string(arch);
}

// ---- parse / format ------------------------------------------------------

namespace {

constexpr std::size_t kDefaultGemmThreshold = 5000;

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t next = s.find(sep, pos);
    out.push_back(s.substr(pos, next - pos));
    if (next == std::string::npos) break;
    pos = next + 1;
  }
  return out;
}

/// Sets *error (when non-null) and returns nullopt, so every parse
/// failure names the offending token.
std::optional<EngineSpec> parse_fail(std::string* error, std::string why) {
  if (error != nullptr) *error = std::move(why);
  return std::nullopt;
}

}  // namespace

std::optional<EngineSpec> try_parse_spec(const std::string& text,
                                         std::string* error) {
  const std::size_t colon = text.find(':');
  const std::string head = text.substr(0, colon);
  const std::vector<std::string> parts = split(head, '/');
  if (parts.size() != 3) {
    return parse_fail(error, "expected update/arch/layout, got '" + head +
                                 "'");
  }

  EngineSpec s;
  if (parts[0] == "sync") {
    s.update = Update::kSync;
  } else if (parts[0] == "async") {
    s.update = Update::kAsync;
  } else {
    return parse_fail(error, "unknown update strategy '" + parts[0] +
                                 "' (expected sync or async)");
  }

  if (parts[1] == "cpu-seq") {
    s.arch = Arch::kCpuSeq;
  } else if (parts[1] == "cpu-par") {
    s.arch = Arch::kCpuPar;
  } else if (parts[1] == "gpu") {
    s.arch = Arch::kGpu;
  } else {
    return parse_fail(error, "unknown arch '" + parts[1] +
                                 "' (expected cpu-seq, cpu-par or gpu)");
  }

  if (parts[2] == "sparse") {
    s.layout = Layout::kSparse;
  } else if (parts[2] == "dense") {
    s.layout = Layout::kDense;
  } else {
    return parse_fail(error, "unknown layout '" + parts[2] +
                                 "' (expected sparse or dense)");
  }

  if (colon != std::string::npos) {
    const std::string tail = text.substr(colon + 1);
    if (tail.empty()) return parse_fail(error, "empty option list after ':'");
    for (const std::string& kv : split(tail, ',')) {
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        return parse_fail(error, "option '" + kv + "' is not key=value");
      }
      const std::string key = kv.substr(0, eq);
      const std::string val = kv.substr(eq + 1);
      if (key == "batch") {
        if (!parse_count_value(val, &s.batch)) {
          return parse_fail(error, "bad value in '" + kv + "'");
        }
      } else if (key == "threads") {
        std::size_t t = 0;
        if (!parse_count_value(val, &t) || t > 100000) {
          return parse_fail(error, "bad value in '" + kv + "'");
        }
        s.threads = static_cast<int>(t);
      } else if (key == "calib") {
        if (val == "linear") s.calibration = Calibration::kLinear;
        else if (val == "mlp") s.calibration = Calibration::kMlp;
        else if (val == "none") s.calibration = Calibration::kNone;
        else {
          return parse_fail(error, "bad value in '" + kv +
                                       "' (expected linear, mlp or none)");
        }
      } else if (key == "delay") {
        if (!parse_count_value(val, &s.delay_units)) {
          return parse_fail(error, "bad value in '" + kv + "'");
        }
      } else if (key == "det") {
        if (val == "on") s.deterministic = true;
        else if (val == "off") s.deterministic = false;
        else {
          return parse_fail(error, "bad value in '" + kv +
                                       "' (expected on or off)");
        }
      } else if (key == "gemmth") {
        if (!parse_count_value(val, &s.gemm_parallel_threshold)) {
          return parse_fail(error, "bad value in '" + kv + "'");
        }
      } else if (key == "resilience") {
        if (val != "off" && val != "watchdog") {
          return parse_fail(error, "bad value in '" + kv +
                                       "' (expected off or watchdog)");
        }
        s.watchdog = val == "watchdog";
      } else if (key == "telemetry") {
        const std::optional<telemetry::TelemetryMode> mode =
            telemetry::parse_telemetry_mode(val);
        if (!mode.has_value()) {
          return parse_fail(error,
                            "bad value in '" + kv +
                                "' (expected off, metrics or trace)");
        }
        s.telemetry = *mode;
      } else {
        return parse_fail(error, "unknown option key '" + key + "'");
      }
    }
  }
  return s;
}

std::optional<EngineSpec> try_parse_spec(const std::string& text) {
  return try_parse_spec(text, nullptr);
}

EngineSpec parse_spec(const std::string& text) {
  std::string error;
  const std::optional<EngineSpec> s = try_parse_spec(text, &error);
  PARSGD_CHECK(s.has_value(),
               "malformed engine spec '"
                   << text << "': " << error
                   << " (expected update/arch/layout[:key=value,...], "
                      "e.g. async/cpu-par/sparse or "
                      "sync/gpu/dense:batch=64,calib=mlp)");
  return *s;
}

std::string format_spec(const EngineSpec& spec) {
  std::string out = spec.family() + "/" + to_string(spec.layout);
  std::vector<std::string> kv;
  if (spec.batch != 0) kv.push_back("batch=" + std::to_string(spec.batch));
  if (spec.calibration != Calibration::kLinear) {
    kv.push_back(std::string("calib=") + to_string(spec.calibration));
  }
  if (spec.delay_units != 0) {
    kv.push_back("delay=" + std::to_string(spec.delay_units));
  }
  if (!spec.deterministic) kv.push_back("det=off");
  if (spec.gemm_parallel_threshold != kDefaultGemmThreshold) {
    kv.push_back("gemmth=" + std::to_string(spec.gemm_parallel_threshold));
  }
  if (spec.watchdog) kv.push_back("resilience=watchdog");
  if (spec.threads != 0) {
    kv.push_back("threads=" + std::to_string(spec.threads));
  }
  if (spec.telemetry != telemetry::TelemetryMode::kOff) {
    kv.push_back(std::string("telemetry=") + to_string(spec.telemetry));
  }
  for (std::size_t i = 0; i < kv.size(); ++i) {
    out += (i == 0 ? ':' : ',');
    out += kv[i];
  }
  return out;
}

// ---- context -------------------------------------------------------------

EngineContext make_engine_context(const Dataset& ds, const Model& model,
                                  Layout layout) {
  EngineContext ctx;
  ctx.model = &model;
  ctx.data.sparse = &ds.x;
  ctx.data.dense = ds.x_dense ? &*ds.x_dense : nullptr;
  ctx.data.y = ds.y;
  ctx.scale = make_scale_context(ds, model, layout == Layout::kDense);
  return ctx;
}

// ---- engine table ------------------------------------------------------------

namespace {

int resolved_threads(const EngineSpec& spec, const EngineContext& ctx) {
  if (spec.arch == Arch::kCpuSeq) return 1;
  return spec.threads > 0 ? spec.threads : ctx.cpu_threads;
}

SyncCalibration sync_calibration(Calibration c) {
  switch (c) {
    case Calibration::kMlp: return SyncCalibration::mlp();
    case Calibration::kNone: return SyncCalibration::none();
    case Calibration::kLinear: break;
  }
  return SyncCalibration{};
}

std::unique_ptr<Engine> make_sync(const EngineSpec& spec,
                                  const EngineContext& ctx) {
  SyncEngineOptions o;
  o.arch = spec.arch;
  o.use_dense = spec.layout == Layout::kDense;
  o.cpu_threads = resolved_threads(spec, ctx);
  o.gemm_parallel_threshold = spec.gemm_parallel_threshold;
  o.calibration = sync_calibration(spec.calibration);
  o.minibatch = spec.batch;
  o.pool = ctx.pool;
  o.deterministic = spec.deterministic;
  return std::make_unique<SyncEngine>(*ctx.model, ctx.data, ctx.scale, o);
}

std::unique_ptr<Engine> make_async_cpu(const EngineSpec& spec,
                                       const EngineContext& ctx) {
  AsyncCpuOptions o;
  o.arch = spec.arch;
  o.threads = resolved_threads(spec, ctx);
  o.batch = std::max<std::size_t>(spec.batch, 1);
  o.prefer_dense = spec.layout == Layout::kDense;
  o.delay_units = spec.delay_units;
  o.pool = ctx.pool;
  if (spec.calibration == Calibration::kMlp) {
    // ViennaCL-driver dispatch calibration for Hogbatch MLP
    // (EXPERIMENTS.md; paper Table III). Hogbatch propagates updates
    // after every batch, hence the one-unit window.
    o.dispatch_us_seq = 21.0;
    o.dispatch_us_par = 1.3;
    o.window_units = 1;
  }
  return std::make_unique<AsyncCpuEngine>(*ctx.model, ctx.data, ctx.scale,
                                          o);
}

std::unique_ptr<Engine> make_async_gpu(const EngineSpec& spec,
                                       const EngineContext& ctx) {
  AsyncGpuOptions o;
  o.batch = std::max<std::size_t>(spec.batch, 1);
  o.prefer_dense = spec.layout == Layout::kDense;
  if (spec.calibration == Calibration::kMlp) {
    // The paper's async-GPU MLP rows are a flat ~10.5 us/example
    // (driver/launch overhead of the per-batch kernel chains).
    o.dispatch_us = 10.5;
  }
  return std::make_unique<AsyncGpuEngine>(*ctx.model, ctx.data, ctx.scale,
                                          o);
}

}  // namespace

std::vector<EngineSpec> registered_specs() {
  std::vector<EngineSpec> specs;
  for (const Update update : {Update::kAsync, Update::kSync}) {
    for (const Arch arch : {Arch::kCpuPar, Arch::kCpuSeq, Arch::kGpu}) {
      EngineSpec s;
      s.update = update;
      s.arch = arch;
      specs.push_back(s);
    }
  }
  return specs;
}

std::unique_ptr<Engine> make_engine(const EngineSpec& spec,
                                    const EngineContext& ctx) {
  PARSGD_CHECK(ctx.model != nullptr && ctx.data.sparse != nullptr,
               "EngineContext is missing model or training data");
  PARSGD_CHECK(spec.layout == Layout::kSparse || ctx.data.has_dense(),
               "spec '" << format_spec(spec)
                        << "' requires a dense materialization");
  std::unique_ptr<Engine> engine;
  if (spec.update == Update::kSync) {
    engine = make_sync(spec, ctx);
  } else if (spec.arch == Arch::kGpu) {
    engine = make_async_gpu(spec, ctx);
  } else {
    engine = make_async_cpu(spec, ctx);
  }
  // A shared context session wins (one registry for a whole Study); a
  // telemetry= spec key on a bare context gets a standalone session.
  std::shared_ptr<telemetry::TelemetrySession> session = ctx.telemetry;
  if (session == nullptr &&
      spec.telemetry != telemetry::TelemetryMode::kOff) {
    session = std::make_shared<telemetry::TelemetrySession>(spec.telemetry);
  }
  if (session != nullptr) engine->set_telemetry(std::move(session));
  return engine;
}

}  // namespace parsgd
