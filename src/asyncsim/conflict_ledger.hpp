// Cache-line write-conflict ledger of the CPU Hogwild simulator
// (AsyncSim; DESIGN.md §8 "Conflict accounting").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "matrix/types.hpp"

namespace parsgd {

/// Cache-line id of a model coordinate (64 B lines of real_t).
inline std::uint32_t model_line(index_t coordinate) {
  return coordinate / (64 / sizeof(real_t));
}

/// Per-window conflict ledger over one model's cache lines. Callers record,
/// per *unit of work* (example or mini-batch), the coordinates that unit
/// wrote. A line written by >= 2 distinct workers within the window
/// ping-pongs: between two consecutive units of one worker, other workers
/// have reclaimed the line, so every unit's touch of a contended line costs
/// one ownership transfer. conflicts() therefore returns the number of
/// unit-line write events on multi-writer lines. Touches of one line within
/// one unit count once — they hit an already-owned line.
///
/// Storage is one flat 16-byte entry per model line. A window stamp marks
/// the entries live in the current window, so clear() bumps it instead of
/// touching the entries (they are reset only when the 16-bit stamp
/// wraps); a unit stamp dedupes touches within a unit the same way.
/// `used_` lists the live lines, so conflicts() visits only the lines the
/// window touched. Event counts are integers, so conflicts() is
/// independent of the order lines were first touched.
class ConflictLedger {
 public:
  /// Ledger for a model of `dim` coordinates.
  explicit ConflictLedger(std::size_t dim)
      : entries_(dim == 0 ? 0
                          : model_line(static_cast<index_t>(dim - 1)) + 1) {}

  std::size_t lines() const { return entries_.size(); }

  /// One unit of `worker` wrote the coordinates in `touched`.
  void record(int worker, std::span<const index_t> touched) {
    begin_unit();
    for (const index_t j : touched) touch(worker, model_line(j));
  }

  /// One unit of `worker` wrote every model line (a dense update).
  void record_all(int worker) {
    begin_unit();
    const auto n = static_cast<std::uint32_t>(entries_.size());
    for (std::uint32_t line = 0; line < n; ++line) touch(worker, line);
  }

  /// Unit-line write events on lines that >= 2 workers wrote this window.
  double conflicts() const {
    double total = 0;
    for (const std::uint32_t line : used_) {
      const Entry& e = entries_[line];
      if (e.multi_writer) total += e.events;
    }
    return total;
  }

  /// Starts a new window.
  void clear() {
    used_.clear();
    if (++window_ == 0) {
      for (Entry& e : entries_) e.window = 0;
      window_ = 1;
    }
  }

 private:
  using Stamp = std::uint16_t;

  struct Entry {
    Stamp window = 0;  ///< live iff == window_
    Stamp unit = 0;    ///< last unit that touched the line
    int last_worker = -1;
    std::uint32_t events = 0;
    bool multi_writer = false;
  };

  void begin_unit() {
    if (++unit_ == 0) {
      for (Entry& e : entries_) e.unit = 0;
      unit_ = 1;
    }
  }

  void touch(int worker, std::uint32_t line) {
    Entry& e = entries_[line];
    if (e.window != window_) {
      e = Entry{window_, unit_, worker, 1, false};
      used_.push_back(line);
      return;
    }
    if (e.unit == unit_) return;
    e.unit = unit_;
    if (e.last_worker != worker) {
      e.multi_writer = true;
      e.last_worker = worker;
    }
    ++e.events;
  }

  std::vector<Entry> entries_;
  std::vector<std::uint32_t> used_;
  Stamp window_ = 1;
  Stamp unit_ = 0;
};

}  // namespace parsgd
