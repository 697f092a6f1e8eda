// Training checkpoints (DESIGN.md §11): everything run_training needs to
// continue a run bit-identically — model weights, the full RNG state, the
// epoch cursor, the watchdog's step-size scale and recovery budget, and
// the partial RunResult recorded so far. A crash at epoch k followed by
// load_checkpoint + resume reproduces the uninterrupted trajectory.
//
// On-disk format (little-endian, native field widths): magic "PSGD",
// version u32, next_epoch u64, alpha_scale f64, recoveries_used u64,
// RNG (4 x u64 + f64 spare + u8 has_spare), weights (u64 dim + raw
// real_t), then the partial RunResult (initial_loss f64, diverged u8,
// alpha_scale f64, losses/epoch_seconds as u64 count + f64s, recoveries
// as u64 count + {u64 epoch, f64 bad_loss, f64 alpha_scale_after,
// u8 reason}). save_checkpoint writes version 1. Older builds wrote
// version 2, which appends a window of run-state frames (u64 frame count
// + 13 f64s per frame); the reader skips that window, so those files
// still resume. Every count is checked against the bytes left in the file
// before anything is allocated from it. Writes go to "<path>.tmp" then
// rename, so a crash mid-write never corrupts the previous checkpoint.
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "matrix/types.hpp"
#include "sgd/engine.hpp"

namespace parsgd {

struct TrainCheckpoint {
  std::size_t next_epoch = 0;   ///< first epoch the resumed run executes
  double alpha_scale = 1.0;     ///< watchdog step-size scale at save time
  std::size_t recoveries_used = 0;
  RngState rng;                 ///< run RNG as of next_epoch
  std::vector<real_t> w;        ///< model weights as of next_epoch
  RunResult partial;            ///< trajectory recorded so far
};

/// Writes `ck` to `path` atomically (tmp file + rename). Throws CheckError
/// on I/O failure.
void save_checkpoint(const std::string& path, const TrainCheckpoint& ck);

/// Reads a checkpoint written by save_checkpoint (or a version-2 file of
/// an older build). Throws CheckError, naming the file, on a missing
/// file, bad magic/version, a count larger than the bytes behind it, or
/// a truncated payload.
TrainCheckpoint load_checkpoint(const std::string& path);

}  // namespace parsgd
