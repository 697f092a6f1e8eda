#include "common/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/check.hpp"

namespace parsgd {

Cli::Cli(int argc, char** argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
}

bool Cli::has(const std::string& name) const { return flags_.count(name) > 0; }

std::string Cli::get(const std::string& name,
                     const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

namespace {

[[noreturn]] void bad_value(const std::string& name, const std::string& text,
                            const char* expected) {
  throw CheckError("--" + name + "='" + text + "' is not " + expected);
}

}  // namespace

bool parse_int_value(const std::string& text, std::int64_t* out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE) {
    return false;
  }
  *out = v;
  return true;
}

bool parse_double_value(const std::string& text, double* out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE) {
    return false;
  }
  *out = v;
  return true;
}

bool parse_count_value(const std::string& text, std::size_t* out) {
  std::int64_t v = 0;
  if (!parse_int_value(text, &v) || v < 0) return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

std::int64_t Cli::get_int(const std::string& name,
                          std::int64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  std::int64_t v = 0;
  if (!parse_int_value(it->second, &v)) {
    bad_value(name, it->second, "an integer");
  }
  return v;
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  double v = 0;
  if (!parse_double_value(it->second, &v)) {
    bad_value(name, it->second, "a number in double range");
  }
  return v;
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  bad_value(name, v, "a boolean (true/false, 1/0 or yes/no)");
}

std::string Cli::unknown_flag(const std::vector<std::string>& known) const {
  for (const auto& [name, value] : flags_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      return name;
    }
  }
  return "";
}

void Cli::exit_on_unknown_flag(const std::vector<std::string>& known) const {
  if (const std::string bad = unknown_flag(known); !bad.empty()) {
    std::fprintf(stderr, "%s: unknown flag --%s\n", program_.c_str(),
                 bad.c_str());
    std::exit(2);
  }
}

}  // namespace parsgd
