#include "sgd/checkpoint.hpp"

#include <cstdint>
#include <cstdio>
#include <fstream>

#include "common/check.hpp"

namespace parsgd {

namespace {

constexpr std::uint32_t kMagic = 0x50534744u;  // "PSGD"
// v1: core trajectory state, the version written. v2 (older builds)
// appends a window of kV2FrameBytes-sized frames that the reader skips.
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kMaxReadVersion = 2;
constexpr std::uint64_t kV2FrameBytes = 13 * sizeof(double);
// On disk a RecoveryEvent is u64 epoch + 2 x f64 + u8 reason.
constexpr std::uint64_t kRecoveryBytes = 8 + 8 + 8 + 1;

template <typename T>
void put(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

void put_doubles(std::ostream& os, const std::vector<double>& v) {
  put<std::uint64_t>(os, v.size());
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(double)));
}

/// Sequential checkpoint reader that knows how many bytes are left, so
/// every count field is checked against the payload behind it before
/// anything is allocated from it.
class Reader {
 public:
  explicit Reader(const std::string& path)
      : path_(path), is_(path, std::ios::binary) {
    PARSGD_CHECK(is_.is_open(), "cannot open checkpoint file '" << path
                                                                << "'");
    is_.seekg(0, std::ios::end);
    size_ = static_cast<std::uint64_t>(is_.tellg());
    is_.seekg(0);
  }

  template <typename T>
  T get() {
    T v{};
    read(&v, sizeof(T));
    return v;
  }

  /// Reads a u64 element count and checks that `n * elem_bytes` bytes
  /// follow it in the file.
  std::uint64_t count(std::uint64_t elem_bytes, const char* what) {
    const auto n = get<std::uint64_t>();
    const std::uint64_t left =
        size_ - static_cast<std::uint64_t>(is_.tellg());
    PARSGD_CHECK(n <= left / elem_bytes,
                 "implausible " << what << " count " << n
                                << " in checkpoint '" << path_ << "' (only "
                                << left << " bytes follow)");
    return n;
  }

  void read(void* dst, std::uint64_t bytes) {
    is_.read(static_cast<char*>(dst), static_cast<std::streamsize>(bytes));
    PARSGD_CHECK(is_.good(), "truncated checkpoint file '" << path_ << "'");
  }

  void skip(std::uint64_t bytes) {
    is_.seekg(static_cast<std::streamoff>(bytes), std::ios::cur);
    PARSGD_CHECK(is_.good(), "truncated checkpoint file '" << path_ << "'");
  }

  std::vector<double> doubles(const char* what) {
    std::vector<double> v(count(sizeof(double), what));
    read(v.data(), v.size() * sizeof(double));
    return v;
  }

 private:
  std::string path_;
  std::ifstream is_;
  std::uint64_t size_ = 0;
};

}  // namespace

void save_checkpoint(const std::string& path, const TrainCheckpoint& ck) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    PARSGD_CHECK(os.is_open(), "cannot open checkpoint file '" << tmp
                                                               << "'");
    put(os, kMagic);
    put(os, kVersion);
    put<std::uint64_t>(os, ck.next_epoch);
    put(os, ck.alpha_scale);
    put<std::uint64_t>(os, ck.recoveries_used);
    for (const std::uint64_t s : ck.rng.s) put(os, s);
    put(os, ck.rng.spare);
    put<std::uint8_t>(os, ck.rng.has_spare ? 1 : 0);
    put<std::uint64_t>(os, ck.w.size());
    os.write(reinterpret_cast<const char*>(ck.w.data()),
             static_cast<std::streamsize>(ck.w.size() * sizeof(real_t)));
    put(os, ck.partial.initial_loss);
    put<std::uint8_t>(os, ck.partial.diverged ? 1 : 0);
    put(os, ck.partial.alpha_scale);
    put_doubles(os, ck.partial.losses);
    put_doubles(os, ck.partial.epoch_seconds);
    put<std::uint64_t>(os, ck.partial.recoveries.size());
    for (const RecoveryEvent& ev : ck.partial.recoveries) {
      put<std::uint64_t>(os, ev.epoch);
      put(os, ev.bad_loss);
      put(os, ev.alpha_scale_after);
      put<std::uint8_t>(os, static_cast<std::uint8_t>(ev.reason));
    }
    os.flush();
    PARSGD_CHECK(os.good(), "write failed for checkpoint file '" << tmp
                                                                 << "'");
  }
  PARSGD_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
               "cannot move checkpoint into place at '" << path << "'");
}

TrainCheckpoint load_checkpoint(const std::string& path) {
  Reader in(path);
  PARSGD_CHECK(in.get<std::uint32_t>() == kMagic,
               "'" << path << "' is not a parsgd checkpoint");
  const auto version = in.get<std::uint32_t>();
  PARSGD_CHECK(version >= 1 && version <= kMaxReadVersion,
               "unsupported checkpoint version " << version << " in '"
                                                 << path << "'");
  TrainCheckpoint ck;
  ck.next_epoch = in.get<std::uint64_t>();
  ck.alpha_scale = in.get<double>();
  ck.recoveries_used = in.get<std::uint64_t>();
  for (std::uint64_t& s : ck.rng.s) s = in.get<std::uint64_t>();
  ck.rng.spare = in.get<double>();
  ck.rng.has_spare = in.get<std::uint8_t>() != 0;
  ck.w.resize(in.count(sizeof(real_t), "weight"));
  in.read(ck.w.data(), ck.w.size() * sizeof(real_t));
  ck.partial.initial_loss = in.get<double>();
  ck.partial.diverged = in.get<std::uint8_t>() != 0;
  ck.partial.alpha_scale = in.get<double>();
  ck.partial.losses = in.doubles("loss");
  ck.partial.epoch_seconds = in.doubles("epoch-seconds");
  ck.partial.recoveries.resize(in.count(kRecoveryBytes, "recovery"));
  for (RecoveryEvent& ev : ck.partial.recoveries) {
    ev.epoch = in.get<std::uint64_t>();
    ev.bad_loss = in.get<double>();
    ev.alpha_scale_after = in.get<double>();
    const auto reason = in.get<std::uint8_t>();
    // 0..1: the RecoveryReason range (kNonFinite, kLossSpike). Older
    // full-resilience runs could also write 2 (deadline) or 3 (bad
    // weights); those reasons no longer exist, so such files are
    // rejected rather than loaded into an out-of-range enum.
    PARSGD_CHECK(reason <= 1, "bad recovery reason "
                                  << static_cast<int>(reason)
                                  << " in checkpoint '" << path << "'");
    ev.reason = static_cast<RecoveryReason>(reason);
  }
  if (version == 2) {
    in.skip(in.count(kV2FrameBytes, "v2 frame") * kV2FrameBytes);
  }
  return ck;
}

}  // namespace parsgd
