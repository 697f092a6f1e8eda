// Reproduces Table I: the experimental-dataset inventory. Generates the
// synthetic equivalents and prints the measured shape statistics next to
// the published ones — the validity check for the data substitution
// (DESIGN.md §2).
//
//   ./bench_table1_datasets [--scale=100]
#include <iostream>

#include "bench_common.hpp"
#include "common/format.hpp"
#include "data/generator.hpp"
#include "data/mlp_view.hpp"

using namespace parsgd;
using namespace parsgd::benchutil;

namespace {

int run(const Cli& cli) {
  const double scale = cli.get_double("scale", 100.0);
  std::printf("=== Table I: experimental datasets (scaled 1/%.0f in N) ===\n\n",
              scale);

  report::RunReport rep("table1_datasets");
  rep.scale = scale;

  TableWriter table({"dataset", "#examples (paper)", "#features",
                     "nnz/exp min-max (avg | paper avg)", "size s/d",
                     "LR&SVM sparsity | paper", "MLP sparsity | paper",
                     "MLP architecture"});

  // Published Table I values for the comparison columns.
  const std::map<std::string, std::pair<double, double>> paper_sparsity = {
      {"covtype", {100.0, 100.0}}, {"w8a", {3.88, 3.88}},
      {"real-sim", {0.25, 42.64}}, {"rcv1", {0.16, 64.38}},
      {"news", {0.03, 22.50}}};

  for (const auto& name : all_datasets()) {
    GeneratorOptions gen;
    gen.scale = scale;
    const Dataset ds = generate_dataset(name, gen);
    const Dataset mlp = make_mlp_dataset(ds);
    const NnzStats s = ds.nnz_stats();
    const auto& [lr_paper, mlp_paper] = paper_sparsity.at(name);

    std::string arch;
    for (const std::size_t l : ds.profile.mlp_architecture()) {
      if (!arch.empty()) arch += "-";
      arch += std::to_string(l);
    }
    const double dense_bytes = static_cast<double>(ds.x.dense_bytes()) *
                               ds.profile.n_scale();
    const double sparse_bytes =
        static_cast<double>(ds.x.bytes()) * ds.profile.n_scale();
    table.add_row({
        name,
        format_count(ds.n()) + " (" + format_count(ds.profile.paper_n()) +
            ")",
        format_count(ds.d()),
        std::to_string(s.min) + " to " + std::to_string(s.max) + " (" +
            fmt_sig3(s.avg) + " | " + fmt_sig3(ds.profile.nnz_avg) + ")",
        format_bytes(sparse_bytes) + " / " + format_bytes(dense_bytes),
        fmt_sig3(100.0 * s.avg / static_cast<double>(ds.d())) + " | " +
            fmt_sig3(lr_paper),
        fmt_sig3(100.0 * mlp.x.density()) + " | " + fmt_sig3(mlp_paper),
        arch,
    });

    rep.datasets.push_back(report::DatasetInfo::from(ds));
    report::Entry e;
    e.label = name;
    e.dataset = name;
    e.extras = {
        {"nnz_avg", s.avg},
        {"nnz_min", static_cast<double>(s.min)},
        {"nnz_max", static_cast<double>(s.max)},
        {"lr_sparsity_pct", 100.0 * s.avg / static_cast<double>(ds.d())},
        {"mlp_sparsity_pct", 100.0 * mlp.x.density()},
        {"paper_lr_sparsity_pct", lr_paper},
        {"paper_mlp_sparsity_pct", mlp_paper},
    };
    rep.add_entry(std::move(e));
  }
  table.print(std::cout);
  if (!cli.get_bool("no-report", false)) {
    std::printf("report: %s\n",
                report::emit(rep, cli.get("report-dir", "")).c_str());
  }
  std::cout << "\n(sizes are extrapolated to paper-scale N; the paper's "
               "Table I quotes on-disk libsvm text sizes, so absolute "
               "bytes differ while the s/d ratio shape holds)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, {"scale"}, run);
}
