#include "core/study.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/table.hpp"
#include "parallel/thread_pool.hpp"

namespace parsgd {
namespace {

StudyOptions quick() {
  StudyOptions o;
  o.scale = 500.0;          // tiny datasets for test speed
  o.probe_epochs = 5;
  o.keep_candidates = 2;
  o.full_epochs_linear = 30;
  o.full_epochs_mlp = 10;
  o.step_grid = {1e-2, 1e-1, 1.0, 10.0};
  return o;
}

TEST(Study, EndToEndSmoke) {
  Study study(quick());
  const ConfigResult sync_gpu =
      study.config_result(Task::kLr, "w8a", Update::kSync, Arch::kGpu);
  const ConfigResult sync_seq =
      study.config_result(Task::kLr, "w8a", Update::kSync, Arch::kCpuSeq);
  const ConfigResult async_seq =
      study.config_result(Task::kLr, "w8a", Update::kAsync, Arch::kCpuSeq);
  const ConfigResult async_par =
      study.config_result(Task::kLr, "w8a", Update::kAsync, Arch::kCpuPar);

  // Hardware efficiency sane and distinct.
  EXPECT_GT(sync_gpu.sec_per_epoch, 0);
  EXPECT_GT(sync_seq.sec_per_epoch, sync_gpu.sec_per_epoch);
  EXPECT_GT(async_seq.sec_per_epoch, 0);
  EXPECT_GT(async_par.sec_per_epoch, 0);

  // Sync trajectories are shared: same alpha, same loss curve.
  EXPECT_EQ(sync_gpu.alpha, sync_seq.alpha);
  EXPECT_EQ(sync_gpu.run->losses, sync_seq.run->losses);

  // Convergence bookkeeping: the 10% point is no later than the 1% point.
  if (sync_gpu.ttc[0].reached && sync_gpu.ttc[3].reached) {
    EXPECT_LE(sync_gpu.ttc[0].epochs, sync_gpu.ttc[3].epochs);
    EXPECT_LE(sync_gpu.ttc[0].seconds, sync_gpu.ttc[3].seconds);
  }

  // The shared optimum lower-bounds every run.
  const double opt = study.optimum(Task::kLr, "w8a");
  EXPECT_LE(opt, sync_gpu.run->best_loss() + 1e-9);
  EXPECT_LE(opt, async_par.run->best_loss() + 1e-9);
}

TEST(Study, AsyncResultsIndependentOfPoolAndRequestOrder) {
  // Requesting gpu first batches the three async searches gpu, cpu-par,
  // cpu-seq on three workers; requesting cpu-seq first batches cpu-seq,
  // cpu-par, gpu on the caller alone. Each cell is the same either way.
  ThreadPool three(3), none(ThreadPool::NoWorkers{});
  StudyOptions a_opts = quick(), b_opts = quick();
  a_opts.pool = &three;
  b_opts.pool = &none;
  Study a(a_opts), b(b_opts);
  a.config_result(Task::kLr, "w8a", Update::kAsync, Arch::kGpu);
  b.config_result(Task::kLr, "w8a", Update::kAsync, Arch::kCpuSeq);
  for (const Arch arch : {Arch::kCpuPar, Arch::kCpuSeq, Arch::kGpu}) {
    SCOPED_TRACE(to_string(arch));
    const ConfigResult ra =
        a.config_result(Task::kLr, "w8a", Update::kAsync, arch);
    const ConfigResult rb =
        b.config_result(Task::kLr, "w8a", Update::kAsync, arch);
    EXPECT_EQ(ra.alpha, rb.alpha);
    EXPECT_EQ(ra.sec_per_epoch, rb.sec_per_epoch);
    EXPECT_EQ(ra.diverged, rb.diverged);
    EXPECT_EQ(ra.run->initial_loss, rb.run->initial_loss);
    EXPECT_EQ(ra.run->losses, rb.run->losses);
    EXPECT_EQ(ra.run->epoch_seconds, rb.run->epoch_seconds);
    for (std::size_t i = 0; i < ra.ttc.size(); ++i) {
      EXPECT_EQ(ra.ttc[i].reached, rb.ttc[i].reached);
      EXPECT_EQ(ra.ttc[i].epochs, rb.ttc[i].epochs);
      EXPECT_EQ(ra.ttc[i].seconds, rb.ttc[i].seconds);
    }
  }
  EXPECT_EQ(a.optimum(Task::kLr, "w8a", Update::kAsync),
            b.optimum(Task::kLr, "w8a", Update::kAsync));
}

TEST(Study, DatasetCachingAndMlpView) {
  Study study(quick());
  const Dataset& lr_ds = study.dataset(Task::kLr, "real-sim");
  const Dataset& svm_ds = study.dataset(Task::kSvm, "real-sim");
  EXPECT_EQ(&lr_ds, &svm_ds);  // shared base dataset
  const Dataset& mlp_ds = study.dataset(Task::kMlp, "real-sim");
  EXPECT_EQ(mlp_ds.d(), 50u);  // grouped to the MLP input width
  EXPECT_EQ(study.model(Task::kMlp, "real-sim").name(), "MLP");
  EXPECT_EQ(study.model(Task::kSvm, "real-sim").name(), "SVM");
}

TEST(Study, BaselineSeconds) {
  Study study(quick());
  const double tf_gpu = study.baseline_seconds(tensorflow_profile(),
                                               Task::kMlp, "w8a", Arch::kGpu);
  const double tf_par = study.baseline_seconds(
      tensorflow_profile(), Task::kMlp, "w8a", Arch::kCpuPar);
  EXPECT_GT(tf_gpu, 0);
  EXPECT_GT(tf_par, 0);
  const double bm_gpu = study.baseline_seconds(bidmach_profile(), Task::kLr,
                                               "w8a", Arch::kGpu);
  EXPECT_GT(bm_gpu, 0);
}

TEST(Study, UseDenseRule) {
  Study study(quick());
  EXPECT_TRUE(Study::use_dense(Task::kLr, study.dataset(Task::kLr, "covtype")));
  EXPECT_FALSE(Study::use_dense(Task::kLr, study.dataset(Task::kLr, "w8a")));
  EXPECT_TRUE(Study::use_dense(Task::kMlp, study.dataset(Task::kMlp, "w8a")));
}

TEST(TableWriter, AlignsAndRules) {
  TableWriter t({"a", "long-header"});
  t.add_row({"1", "2"});
  t.add_rule();
  t.add_row({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| a   | long-header |"), std::string::npos);
  EXPECT_NE(out.find("| 333 | 4           |"), std::string::npos);
  // 4 rule lines: top, after header, the explicit mid rule, bottom.
  std::size_t rules = 0;
  std::istringstream lines(out);
  std::string line;
  while (std::getline(lines, line)) rules += !line.empty() && line[0] == '+';
  EXPECT_EQ(rules, 4u);
}

TEST(ReportFormat, Numbers) {
  EXPECT_EQ(fmt_sig3(1.234), "1.23");
  EXPECT_EQ(fmt_sig3(12.34), "12.3");
  EXPECT_EQ(fmt_sig3(123.4), "123");
  EXPECT_EQ(fmt_sec(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(fmt_msec(0.01234), "12.3");
}

TEST(Study, TaskNames) {
  EXPECT_STREQ(to_string(Task::kLr), "LR");
  EXPECT_STREQ(to_string(Task::kSvm), "SVM");
  EXPECT_STREQ(to_string(Task::kMlp), "MLP");
}

}  // namespace
}  // namespace parsgd
