// parsgd_top — live terminal dashboard for a training run (DESIGN.md
// §18). Tails the compact JSON status document that run_training rewrites
// atomically when launched with --status-file, and renders it as a
// refreshing panel: run header, resilience counters, flight-recorder
// frame count, per-bucket time-budget bars (the attribution ledger's
// steady-state split), and a per-node table for cluster runs.
//
//   ./parsgd_cli ... --status-file=/tmp/run.status &
//   ./parsgd_top /tmp/run.status
//
// Because the writer renames a complete temp file over the path, a read
// here never observes a torn document; a transiently missing file (the
// run has not started yet, or is between rename and open on exotic
// filesystems) just skips one refresh.
//
// --once reads and renders a single snapshot, validating the schema as it
// goes, and exits non-zero on a malformed document — scripts/check.sh
// uses it as the status-file schema self-check.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "report/json.hpp"

using namespace parsgd;
using report::Json;

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: parsgd_top <status.json> [--interval=0.5]\n"
               "       [--iterations=N]  stop after N refreshes (0 = run"
               " until killed)\n"
               "       [--once]          render one snapshot, validate the"
               " schema, exit\n"
               "       [--no-clear]      append frames instead of clearing"
               " the screen\n"
               "exit: 0 ok, 1 malformed status document, 2 usage\n",
               msg);
  std::exit(2);
}

/// Whole-file slurp; empty optional when the file is not readable (the
/// run has not written its first status yet).
bool slurp(const std::string& path, std::string& out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  std::ostringstream buf;
  buf << is.rdbuf();
  out = buf.str();
  return !out.empty();
}

double get_num(const Json& o, const std::string& key, double dflt = 0) {
  const Json* v = o.find(key);
  return v == nullptr ? dflt : v->as_number();
}

/// One horizontal bar: `seconds` as a share of `total`, 28 cells wide.
void print_bar(const char* name, double seconds, double total) {
  constexpr int kWidth = 28;
  const double share = total > 0 ? seconds / total : 0;
  int cells = static_cast<int>(share * kWidth + 0.5);
  if (cells > kWidth) cells = kWidth;
  if (cells < 0) cells = 0;
  std::printf("    %-11s [", name);
  for (int i = 0; i < kWidth; ++i) std::fputs(i < cells ? "#" : ".", stdout);
  std::printf("] %3.0f%%  %.4gs\n", share * 100.0, seconds);
}

/// Renders one split object ({"compute": s, ...}) as bars against
/// `total`. Returns the bucket sum so the --once self-check can verify
/// the buckets-sum-to-total contract.
double print_split(const Json& split, double total) {
  double sum = 0;
  for (const auto& [name, v] : split.as_object()) {
    const double s = v.as_number();
    sum += s;
    print_bar(name.c_str(), s, total);
  }
  return sum;
}

/// Renders one status document. Throws CheckError (via the Json typed
/// accessors) on any schema violation — --once turns that into exit 1.
void render(const Json& doc) {
  const int schema = static_cast<int>(doc.at("schema").as_number());
  if (schema != 1) {
    throw std::runtime_error("unsupported status schema " +
                             std::to_string(schema));
  }
  const std::string engine = doc.at("engine").as_string();
  const double epoch = doc.at("epoch").as_number();
  const double epochs = doc.at("epochs").as_number();
  const double loss = doc.at("loss").as_number();
  const double eta = get_num(doc, "eta_s", -1);

  std::printf("parsgd_top — %s\n", engine.c_str());
  std::printf("  epoch %.0f/%.0f  loss %.6g", epoch, epochs, loss);
  if (eta >= 0) std::printf("  eta %.1fs", eta);
  std::printf("\n");

  if (const Json* res = doc.find("resilience")) {
    std::printf("  resilience: %.0f recoveries\n",
                get_num(*res, "recoveries"));
  }
  if (const Json* rec = doc.find("record")) {
    std::printf("  flight recorder: %.0f frame(s) @ %gms cadence\n",
                get_num(*rec, "frames"), get_num(*rec, "cadence_ms"));
  }
  if (const Json* at = doc.find("attribution")) {
    const Json& mean = at->at("mean");
    const double host = mean.at("host_s").as_number();
    const double modeled = mean.at("modeled_s").as_number();
    std::printf("  host time budget (mean/epoch %.4gs):\n", host);
    const double host_sum = print_split(mean.at("host_split"), host);
    std::printf("  modeled time budget (mean/epoch %.4gs):\n", modeled);
    const double modeled_sum = print_split(mean.at("modeled_split"), modeled);
    // The writer normalizes buckets so both splits sum exactly; tolerate
    // only the status file's decimal round-trip (1% contract).
    if (host > 0 && std::abs(host_sum - host) > 0.01 * host) {
      throw std::runtime_error("host buckets do not sum to host_s");
    }
    if (modeled > 0 && std::abs(modeled_sum - modeled) > 0.01 * modeled) {
      throw std::runtime_error("modeled buckets do not sum to modeled_s");
    }
    std::printf("  totals: modeled %.4gs, host %.4gs\n",
                get_num(*at, "modeled_total_s"), get_num(*at, "host_total_s"));
  }
  if (const Json* nodes = doc.find("nodes")) {
    std::printf("  %-5s %10s %10s %10s  %s\n", "node", "units", "MB",
                "net_s", "state");
    for (const Json& n : nodes->as_array()) {
      std::printf("  %-5.0f %10.0f %10.3f %10.4g  %s\n",
                  n.at("node").as_number(), get_num(n, "units"),
                  get_num(n, "mbytes"), get_num(n, "net_s"),
                  n.at("down").as_bool() ? "DOWN" : "up");
    }
  }
}

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  if (cli.positional().size() != 1) usage("expected one status-file path");
  const std::string path = cli.positional()[0];
  const bool once = cli.get_bool("once", false);
  const bool clear = !cli.get_bool("no-clear", false) && !once;
  const double interval = cli.get_double("interval", 0.5);
  const long iterations = static_cast<long>(cli.get_int("iterations", 0));
  if (interval <= 0) usage("--interval needs a positive duration");

  long rendered = 0;
  while (true) {
    std::string text;
    if (slurp(path, text)) {
      const Json doc = report::parse_json(text);
      if (clear) std::fputs("\x1b[2J\x1b[H", stdout);
      render(doc);
      std::fflush(stdout);
      ++rendered;
    } else if (once) {
      std::fprintf(stderr, "parsgd_top: cannot read '%s'\n", path.c_str());
      return 1;
    }
    if (once || (iterations > 0 && rendered >= iterations)) break;
    std::this_thread::sleep_for(std::chrono::duration<double>(interval));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "parsgd_top: fatal: %s\n", e.what());
    return 1;
  }
}
