#include "matrix/io.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/check.hpp"

namespace parsgd {

namespace {

real_t normalize_label(double raw, std::size_t lineno) {
  // Common encodings: {-1,+1}, {0,1}, {1,2}.
  if (raw == -1 || raw == 0) return real_t(-1);
  if (raw == 1) return real_t(1);
  if (raw == 2) return real_t(-1);
  PARSGD_CHECK(false, "libsvm line " << lineno << ": unsupported label value "
                                     << raw);
  return 0;
}

/// Strict full-token double parse: rejects empty tokens, trailing garbage
/// ("3.5x"), and non-finite values.
bool parse_full_double(const char* begin, const char* end, double* out) {
  if (begin == end) return false;
  char* parsed_end = nullptr;
  const double v = std::strtod(begin, &parsed_end);
  if (parsed_end != end) return false;
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

}  // namespace

LabeledCsr read_libsvm(std::istream& in, std::size_t cols) {
  std::vector<std::vector<index_t>> row_idx;
  std::vector<std::vector<real_t>> row_val;
  std::vector<real_t> labels;
  std::size_t max_col = 0;

  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string label_tok;
    PARSGD_CHECK(static_cast<bool>(ls >> label_tok),
                 "libsvm line " << lineno << ": missing label");
    double raw_label = 0;
    PARSGD_CHECK(parse_full_double(label_tok.c_str(),
                                   label_tok.c_str() + label_tok.size(),
                                   &raw_label),
                 "libsvm line " << lineno << ": bad label '" << label_tok
                                << "'");
    labels.push_back(normalize_label(raw_label, lineno));
    row_idx.emplace_back();
    row_val.emplace_back();
    std::string tok;
    while (ls >> tok) {
      const auto colon = tok.find(':');
      PARSGD_CHECK(colon != std::string::npos && colon > 0 &&
                       colon + 1 < tok.size(),
                   "libsvm line " << lineno << ": bad feature token '" << tok
                                  << "'");
      char* idx_end = nullptr;
      const long long idx1 = std::strtoll(tok.c_str(), &idx_end, 10);
      PARSGD_CHECK(idx_end == tok.c_str() + colon,
                   "libsvm line " << lineno << ": non-numeric index in '"
                                  << tok << "'");
      PARSGD_CHECK(idx1 >= 1, "libsvm line "
                                  << lineno
                                  << ": indices are 1-based, got " << idx1
                                  << " in '" << tok << "'");
      PARSGD_CHECK(static_cast<unsigned long long>(idx1) <=
                       std::numeric_limits<index_t>::max(),
                   "libsvm line " << lineno << ": index " << idx1
                                  << " overflows the 32-bit column type");
      double v = 0;
      PARSGD_CHECK(parse_full_double(tok.c_str() + colon + 1,
                                     tok.c_str() + tok.size(), &v),
                   "libsvm line " << lineno << ": bad value in '" << tok
                                  << "'");
      // Narrowing a double beyond the float range is undefined behaviour.
      PARSGD_CHECK(std::abs(v) <= std::numeric_limits<real_t>::max(),
                   "libsvm line " << lineno << ": value in '" << tok
                                  << "' overflows the 32-bit float type");
      const auto idx0 = static_cast<index_t>(idx1 - 1);
      row_idx.back().push_back(idx0);
      row_val.back().push_back(static_cast<real_t>(v));
      max_col = std::max<std::size_t>(max_col, idx0 + 1);
    }
  }

  if (cols == 0) cols = max_col;
  PARSGD_CHECK(cols >= max_col,
               "cols=" << cols << " smaller than max index " << max_col);
  CsrMatrix::Builder b(cols);
  for (std::size_t r = 0; r < row_idx.size(); ++r) {
    b.add_row(row_idx[r], row_val[r]);
  }
  return {std::move(b).build(), std::move(labels)};
}

LabeledCsr read_libsvm_file(const std::string& path, std::size_t cols) {
  std::ifstream in(path);
  PARSGD_CHECK(in.good(), "cannot open " << path);
  return read_libsvm(in, cols);
}

void write_libsvm(std::ostream& out, const LabeledCsr& data) {
  PARSGD_CHECK(data.y.size() == data.x.rows());
  for (std::size_t r = 0; r < data.x.rows(); ++r) {
    out << (data.y[r] > 0 ? "+1" : "-1");
    const auto rv = data.x.row(r);
    for (std::size_t k = 0; k < rv.nnz(); ++k) {
      out << ' ' << (rv.idx[k] + 1) << ':' << rv.val[k];
    }
    out << '\n';
  }
}

void write_libsvm_file(const std::string& path, const LabeledCsr& data) {
  std::ofstream out(path);
  PARSGD_CHECK(out.good(), "cannot open " << path);
  write_libsvm(out, data);
}

}  // namespace parsgd
