// Tiny command-line flag parser shared by the benches and examples.
// Supports --name=value, --name value, and boolean --name forms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace parsgd {

/// The whole-value numeric rule behind Cli::get_int/get_double, for
/// callers that split a flag value themselves (e.g. a unit suffix): true
/// only when all of `text` parses and is in range.
bool parse_int_value(const std::string& text, std::int64_t* out);
bool parse_double_value(const std::string& text, double* out);
/// parse_int_value restricted to non-negative values: the counts of the
/// engine-spec grammar (`batch=-1` is rejected, not wrapped to
/// 2^64 - 1).
bool parse_count_value(const std::string& text, std::size_t* out);

/// Parsed command line: flags plus positional arguments.
class Cli {
 public:
  Cli(int argc, char** argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  /// Numeric reads throw CheckError naming the flag and its value unless
  /// the whole value parses (so `--epochs=10x`, `--epochs=` and a bare
  /// `--epochs` are all rejected); an absent flag yields `fallback`.
  /// get_bool likewise takes only true/false, 1/0 or yes/no, so a stray
  /// word after a bare flag (`--quick stray`) is an error, not "false".
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// A flag not named in `known` (the first by name, without its "--"),
  /// or "" when every flag is known: programs reject a mistyped flag
  /// instead of silently running without it.
  std::string unknown_flag(const std::vector<std::string>& known) const;
  /// unknown_flag for a program with no usage text of its own: names the
  /// flag on stderr and exits with status 2.
  void exit_on_unknown_flag(const std::vector<std::string>& known) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace parsgd
