#include "matrix/io.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace parsgd {
namespace {

TEST(LibsvmIo, ParsesBasicFile) {
  std::istringstream in("+1 1:0.5 3:2\n-1 2:1\n");
  const LabeledCsr data = read_libsvm(in);
  EXPECT_EQ(data.x.rows(), 2u);
  EXPECT_EQ(data.x.cols(), 3u);
  EXPECT_EQ(data.y[0], real_t(1));
  EXPECT_EQ(data.y[1], real_t(-1));
  EXPECT_EQ(data.x.row(0).idx[0], 0u);  // 1-based -> 0-based
  EXPECT_EQ(data.x.row(0).val[1], real_t(2));
}

TEST(LibsvmIo, NormalizesZeroOneLabels) {
  std::istringstream in("0 1:1\n1 1:1\n");
  const LabeledCsr data = read_libsvm(in);
  EXPECT_EQ(data.y[0], real_t(-1));
  EXPECT_EQ(data.y[1], real_t(1));
}

TEST(LibsvmIo, NormalizesOneTwoLabels) {
  std::istringstream in("2 1:1\n1 1:1\n");
  const LabeledCsr data = read_libsvm(in);
  EXPECT_EQ(data.y[0], real_t(-1));
  EXPECT_EQ(data.y[1], real_t(1));
}

TEST(LibsvmIo, SkipsCommentsAndBlankLines) {
  std::istringstream in("# header\n\n+1 1:1\n");
  const LabeledCsr data = read_libsvm(in);
  EXPECT_EQ(data.x.rows(), 1u);
}

TEST(LibsvmIo, ExplicitColsOverridesInference) {
  std::istringstream in("+1 1:1\n");
  const LabeledCsr data = read_libsvm(in, 10);
  EXPECT_EQ(data.x.cols(), 10u);
}

TEST(LibsvmIo, ColsTooSmallThrows) {
  std::istringstream in("+1 5:1\n");
  EXPECT_THROW(read_libsvm(in, 2), CheckError);
}

TEST(LibsvmIo, BadTokenThrows) {
  std::istringstream in("+1 nocolon\n");
  EXPECT_THROW(read_libsvm(in), CheckError);
}

TEST(LibsvmIo, ZeroIndexThrows) {
  std::istringstream in("+1 0:1\n");
  EXPECT_THROW(read_libsvm(in), CheckError);
}

// A corpus of malformed lines, one failure mode each. Every error must be
// a CheckError whose message carries the 1-based line number so a user can
// find the offending record in a multi-gigabyte file.
TEST(LibsvmIo, MalformedLinesThrowWithLineNumber) {
  const struct {
    const char* text;
    const char* why;
  } corpus[] = {
      {"+1 1:1\n+1 1x:2\n", "non-numeric index"},
      {"+1 1:1\n+1 -3:2\n", "negative index"},
      {"+1 1:1\n+1 0:2\n", "zero (1-based) index"},
      {"+1 1:1\n+1 2:3.5x\n", "trailing garbage in value"},
      {"+1 1:1\n+1 2:\n", "empty value"},
      {"+1 1:1\n+1 :2\n", "empty index"},
      {"+1 1:1\nmaybe 1:1\n", "non-numeric label"},
      {"+1 1:1\n7 1:1\n", "unsupported label value"},
      {"+1 1:1\n+1 2:inf\n", "non-finite value"},
      {"+1 1:1\n+1 99999999999:1\n", "index overflows index_t"},
      {"+1 1:1\n+1 2:1e39\n", "value overflows float"},
  };
  for (const auto& c : corpus) {
    std::istringstream in(c.text);
    try {
      read_libsvm(in);
      FAIL() << "expected CheckError for " << c.why;
    } catch (const CheckError& e) {
      // The bad record is always line 2 of the corpus entry.
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << c.why << ": " << e.what();
    }
  }
}

TEST(LibsvmIo, LineNumberCountsCommentsAndBlanks) {
  std::istringstream in("# header\n\n+1 1:1\n+1 bad\n");
  try {
    read_libsvm(in);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
  }
}

TEST(LibsvmIo, EmptyRowAllowed) {
  std::istringstream in("+1\n-1 1:1\n");
  const LabeledCsr data = read_libsvm(in);
  EXPECT_EQ(data.x.row_nnz(0), 0u);
}

TEST(LibsvmIo, RoundTrip) {
  std::istringstream in("+1 1:0.5 3:2\n-1 2:1.25\n+1\n");
  const LabeledCsr data = read_libsvm(in);
  std::ostringstream out;
  write_libsvm(out, data);
  std::istringstream in2(out.str());
  const LabeledCsr again = read_libsvm(in2, data.x.cols());
  EXPECT_TRUE(again.x == data.x);
  EXPECT_EQ(again.y, data.y);
}

TEST(LibsvmIo, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/parsgd_io_test.svm";
  std::istringstream in("+1 2:4\n-1 1:1\n");
  const LabeledCsr data = read_libsvm(in);
  write_libsvm_file(path, data);
  const LabeledCsr again = read_libsvm_file(path, data.x.cols());
  EXPECT_TRUE(again.x == data.x);
}

TEST(LibsvmIo, SeededMutantsParseCleanlyOrThrow) {
  // Seeded mutation run over read_libsvm: every mutant of a small valid
  // corpus either loads as a well-formed dataset (finite values, labels
  // in {-1,+1}, sorted in-range columns) or throws a CheckError with a
  // reason. The corpus holds values one edit away from overflowing
  // float ("1e3" -> "1e39", "-3e38" -> "-33e38") and double
  // ("3e37" -> "3e379").
  const std::string corpus =
      "+1 1:0.5 3:2 12:1e3\n"
      "-1 2:-1.25 7:3e37\n"
      "# comment\n"
      "0 4:2 9:.75\n"
      "2 1:1e-3 10:-3e38\n"
      "1\n";
  {
    std::istringstream in(corpus);
    ASSERT_NO_THROW(read_libsvm(in));
  }
  const std::string inserts = "-+.:e9 #\n";
  Rng rng(0x11B5F3);
  std::size_t accepted = 0;
  constexpr int kMutants = 4000;
  for (int i = 0; i < kMutants; ++i) {
    std::string m = corpus;
    const std::uint64_t edits = 1 + rng.uniform_index(3);
    for (std::uint64_t k = 0; k < edits && !m.empty(); ++k) {
      const std::size_t pos = rng.uniform_index(m.size());
      switch (rng.uniform_index(4)) {
        case 0:  // flip: xor the byte with a random non-zero value
          m[pos] = static_cast<char>(m[pos] ^ (1 + rng.uniform_index(255)));
          break;
        case 1: m.erase(pos, 1); break;
        case 2: m.insert(pos, 1, m[pos]); break;
        default:
          m.insert(pos, 1, inserts[rng.uniform_index(inserts.size())]);
      }
    }
    std::istringstream in(m);
    try {
      const LabeledCsr data = read_libsvm(in);
      ++accepted;
      ASSERT_EQ(data.y.size(), data.x.rows()) << m;
      for (const real_t y : data.y) {
        ASSERT_TRUE(y == real_t(1) || y == real_t(-1)) << y << " in " << m;
      }
      for (std::size_t r = 0; r < data.x.rows(); ++r) {
        const auto row = data.x.row(r);
        for (std::size_t k = 0; k < row.nnz(); ++k) {
          ASSERT_TRUE(std::isfinite(row.val[k])) << row.val[k] << " in " << m;
          ASSERT_LT(row.idx[k], data.x.cols()) << m;
          if (k > 0) {
            ASSERT_LT(row.idx[k - 1], row.idx[k]) << m;
          }
        }
      }
    } catch (const CheckError& e) {
      ASSERT_FALSE(std::string(e.what()).empty()) << m;
    }
  }
  // Both outcomes are exercised, not just the rejections.
  EXPECT_GT(accepted, kMutants / 20u);
  EXPECT_LT(accepted, kMutants * 9 / 10u);
}

TEST(LibsvmIo, MissingFileThrows) {
  EXPECT_THROW(read_libsvm_file("/nonexistent/definitely/missing.svm"),
               CheckError);
}

}  // namespace
}  // namespace parsgd
