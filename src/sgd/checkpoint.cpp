#include "sgd/checkpoint.hpp"

#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>

#include "common/check.hpp"

namespace parsgd {

namespace {

constexpr std::uint32_t kMagic = 0x50534744u;  // "PSGD"
// v1: core trajectory state; v2 appends the flight-recorder window.
constexpr std::uint32_t kVersion = 2;

template <typename T>
void put(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T get(std::istream& is, const std::string& path) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  PARSGD_CHECK(is.good(), "truncated checkpoint file '" << path << "'");
  return v;
}

void put_doubles(std::ostream& os, const std::vector<double>& v) {
  put<std::uint64_t>(os, v.size());
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(double)));
}

std::vector<double> get_doubles(std::istream& is, const std::string& path) {
  const auto n = get<std::uint64_t>(is, path);
  PARSGD_CHECK(n <= (1u << 28), "implausible vector length in checkpoint '"
                                    << path << "'");
  std::vector<double> v(n);
  is.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(double)));
  PARSGD_CHECK(is.good(), "truncated checkpoint file '" << path << "'");
  return v;
}

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
    put<std::uint64_t>(os, ck.flight.size());
    for (const telemetry::FlightSample& f : ck.flight) {
      for (const double v : f.to_array()) put(os, v);
    }
    os.flush();
    PARSGD_CHECK(os.good(), "write failed for checkpoint file '" << tmp
                                                                 << "'");
  }
  PARSGD_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
               "cannot move checkpoint into place at '" << path << "'");
}

TrainCheckpoint load_checkpoint(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  PARSGD_CHECK(is.is_open(), "cannot open checkpoint file '" << path << "'");
  PARSGD_CHECK(get<std::uint32_t>(is, path) == kMagic,
               "'" << path << "' is not a parsgd checkpoint");
  const auto version = get<std::uint32_t>(is, path);
  PARSGD_CHECK(version >= 1 && version <= kVersion,
               "unsupported checkpoint version " << version << " in '"
                                                 << path << "'");
  TrainCheckpoint ck;
  ck.next_epoch = get<std::uint64_t>(is, path);
  ck.alpha_scale = get<double>(is, path);
  ck.recoveries_used = get<std::uint64_t>(is, path);
  for (std::uint64_t& s : ck.rng.s) s = get<std::uint64_t>(is, path);
  ck.rng.spare = get<double>(is, path);
  ck.rng.has_spare = get<std::uint8_t>(is, path) != 0;
  const auto dim = get<std::uint64_t>(is, path);
  PARSGD_CHECK(dim <= (1u << 28),
               "implausible weight count in checkpoint '" << path << "'");
  ck.w.resize(dim);
  is.read(reinterpret_cast<char*>(ck.w.data()),
          static_cast<std::streamsize>(dim * sizeof(real_t)));
  PARSGD_CHECK(is.good(), "truncated checkpoint file '" << path << "'");
  ck.partial.initial_loss = get<double>(is, path);
  ck.partial.diverged = get<std::uint8_t>(is, path) != 0;
  ck.partial.alpha_scale = get<double>(is, path);
  ck.partial.losses = get_doubles(is, path);
  ck.partial.epoch_seconds = get_doubles(is, path);
  const auto n_rec = get<std::uint64_t>(is, path);
  PARSGD_CHECK(n_rec <= (1u << 20),
               "implausible recovery count in checkpoint '" << path << "'");
  ck.partial.recoveries.resize(n_rec);
  for (RecoveryEvent& ev : ck.partial.recoveries) {
    ev.epoch = get<std::uint64_t>(is, path);
    ev.bad_loss = get<double>(is, path);
    ev.alpha_scale_after = get<double>(is, path);
    const auto reason = get<std::uint8_t>(is, path);
    // 0..1: the RecoveryReason range (kNonFinite, kLossSpike). Older
    // full-resilience runs could also write 2 (deadline) or 3 (bad
    // weights); those reasons no longer exist, so such files are
    // rejected rather than loaded into an out-of-range enum.
    PARSGD_CHECK(reason <= 1, "bad recovery reason "
                                  << static_cast<int>(reason)
                                  << " in checkpoint '" << path << "'");
    ev.reason = static_cast<RecoveryReason>(reason);
  }
  if (version >= 2) {
    const auto n_frames = get<std::uint64_t>(is, path);
    PARSGD_CHECK(n_frames <= (1u << 20),
                 "implausible flight-frame count in checkpoint '" << path
                                                                  << "'");
    ck.flight.resize(n_frames);
    for (telemetry::FlightSample& f : ck.flight) {
      std::array<double, telemetry::FlightSample::kFields> a{};
      for (double& v : a) v = get<double>(is, path);
      f = telemetry::FlightSample::from_array(a);
    }
  }
  return ck;
}

}  // namespace parsgd
