// Reproduces Fig. 5: the hardware specification table of the two modeled
// architectures (dual-socket Xeon E5-2660 v4 and Tesla K80/GK210), plus
// the derived model constants the timing models use. Emits
// BENCH_fig5_hwspec.json so constant drift is caught by parsgd_compare.
#include <iostream>

#include "bench_common.hpp"
#include "common/format.hpp"
#include "core/table.hpp"
#include "hwmodel/cpu_model.hpp"
#include "hwmodel/spec.hpp"
#include "report/report.hpp"

using namespace parsgd;

namespace {

int run(const Cli& cli) {
  const CpuSpec& cpu = paper_cpu();
  const GpuSpec& gpu = paper_gpu();

  std::cout << "=== Fig. 5: hardware specification ===\n\n";
  TableWriter table({"", "NUMA CPU", "GPU"});
  table.add_row({"device", cpu.name, gpu.name});
  table.add_row({"CPU/MP", std::to_string(cpu.sockets),
                 std::to_string(gpu.sms)});
  table.add_row({"cores", std::to_string(cpu.cores_per_socket) + " per CPU",
                 std::to_string(gpu.cores_per_sm) + " per MP"});
  table.add_row({"blocks", "-",
                 std::to_string(gpu.max_blocks_per_sm) + " per MP"});
  table.add_row({"threads",
                 std::to_string(cpu.cores_per_socket *
                                cpu.threads_per_core) + " per CPU",
                 std::to_string(gpu.max_threads_per_sm) + " per MP"});
  table.add_row({"L1 cache", "32+32 KB", "48 KB"});
  table.add_row({"L2 cache",
                 format_bytes(static_cast<double>(cpu.l2_per_core)),
                 format_bytes(static_cast<double>(gpu.l2_bytes))});
  table.add_row({"L3 / shared",
                 format_bytes(static_cast<double>(cpu.l3_per_socket)),
                 format_bytes(static_cast<double>(gpu.shared_per_sm))});
  table.add_row({"RAM / global",
                 format_bytes(static_cast<double>(cpu.dram_bytes)),
                 format_bytes(static_cast<double>(gpu.global_bytes))});
  table.add_row({"clock", fmt_sig3(cpu.clock_ghz) + " GHz",
                 fmt_sig3(gpu.clock_ghz) + " GHz"});
  table.print(std::cout);

  const CpuModel model(cpu);
  const double eff_cores = model.effective_cores(56);
  const double fork_join = model.fork_join_seconds(56);
  const double gpu_bpc_sm = gpu.global_bw_gbs / gpu.sms / gpu.clock_ghz;
  const double launch_s = gpu.cycles_kernel_launch / (gpu.clock_ghz * 1e9);
  std::cout << "\nderived model constants:\n";
  std::cout << "  cpu effective cores @56 threads : "
            << fmt_sig3(eff_cores) << "\n";
  std::cout << "  cpu fork/join per primitive @56 : "
            << format_seconds(fork_join) << "\n";
  std::cout << "  gpu bandwidth                   : "
            << fmt_sig3(gpu.global_bw_gbs) << " GB/s ("
            << fmt_sig3(gpu_bpc_sm) << " B/cycle/SM)\n";
  std::cout << "  gpu kernel-launch overhead      : "
            << format_seconds(launch_s) << "\n";

  // The model constants as a comparable report: any change to the hardware
  // model shows up as extras drift in parsgd_compare.
  report::RunReport rep("fig5_hwspec");
  report::Entry e;
  e.label = "model_constants";
  e.extras = {
      {"cpu_effective_cores_56", eff_cores},
      {"cpu_fork_join_seconds_56", fork_join},
      {"gpu_bandwidth_gbs", gpu.global_bw_gbs},
      {"gpu_bytes_per_cycle_per_sm", gpu_bpc_sm},
      {"gpu_kernel_launch_seconds", launch_s},
      {"cpu_clock_ghz", cpu.clock_ghz},
      {"gpu_clock_ghz", gpu.clock_ghz},
  };
  rep.add_entry(std::move(e));
  if (!cli.get_bool("no-report", false)) {
    std::printf("report: %s\n",
                report::emit(rep, cli.get("report-dir", "")).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return benchutil::bench_main(argc, argv, {}, run);
}
