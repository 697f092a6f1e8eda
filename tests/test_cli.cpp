#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/check.hpp"

namespace parsgd {
namespace {

Cli make(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  static std::vector<char*> ptrs;
  ptrs.clear();
  for (auto& s : storage) ptrs.push_back(s.data());
  return Cli(static_cast<int>(ptrs.size()), ptrs.data());
}

TEST(Cli, EqualsForm) {
  const Cli cli = make({"prog", "--scale=25", "--name=covtype"});
  EXPECT_EQ(cli.get_int("scale", 0), 25);
  EXPECT_EQ(cli.get("name", ""), "covtype");
}

TEST(Cli, SpaceForm) {
  const Cli cli = make({"prog", "--epochs", "40"});
  EXPECT_EQ(cli.get_int("epochs", 0), 40);
}

TEST(Cli, BooleanFlag) {
  const Cli cli = make({"prog", "--quick"});
  EXPECT_TRUE(cli.get_bool("quick", false));
  EXPECT_FALSE(cli.get_bool("other", false));
  EXPECT_TRUE(cli.get_bool("missing", true));
}

TEST(Cli, BooleanFlagsRejectOtherValues) {
  // "--quick stray" binds "stray" as the value of --quick: an error, not a
  // silent non-quick run.
  const Cli cli = make({"prog", "--quick", "stray", "--det=on", "--v=no"});
  EXPECT_THROW(cli.get_bool("quick", false), CheckError);
  EXPECT_THROW(cli.get_bool("det", false), CheckError);
  EXPECT_FALSE(cli.get_bool("v", true));
}

TEST(Cli, UnknownFlagNamesIt) {
  const Cli cli = make({"prog", "--scale=2", "--sacle=3", "pos"});
  EXPECT_EQ(cli.unknown_flag({"scale"}), "sacle");
  EXPECT_EQ(cli.unknown_flag({"scale", "sacle"}), "");
}

TEST(Cli, Doubles) {
  const Cli cli = make({"prog", "--alpha=0.01"});
  EXPECT_DOUBLE_EQ(cli.get_double("alpha", 0), 0.01);
  EXPECT_DOUBLE_EQ(cli.get_double("beta", 2.5), 2.5);
}

TEST(Cli, NumericFlagsRejectTrailingGarbage) {
  const Cli cli = make({"prog", "--epochs=10x", "--alpha=0.5abc"});
  EXPECT_THROW(cli.get_int("epochs", 0), CheckError);
  EXPECT_THROW(cli.get_double("alpha", 0), CheckError);
  try {
    cli.get_int("epochs", 0);
  } catch (const CheckError& e) {
    // The message names both the flag and the offending value.
    EXPECT_NE(std::string(e.what()).find("--epochs"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("10x"), std::string::npos);
  }
}

TEST(Cli, NumericFlagsRejectEmptyValues) {
  const Cli cli = make({"prog", "--epochs=", "--scale="});
  EXPECT_THROW(cli.get_int("epochs", 0), CheckError);
  EXPECT_THROW(cli.get_double("scale", 0), CheckError);
}

TEST(Cli, BareFlagIsNotANumber) {
  const Cli cli = make({"prog", "--epochs", "--scale"});
  EXPECT_THROW(cli.get_int("epochs", 0), CheckError);
  EXPECT_THROW(cli.get_double("scale", 0), CheckError);
  EXPECT_TRUE(cli.get_bool("epochs", false));
}

TEST(Cli, NumericFlagsRejectOutOfRange) {
  const Cli cli = make({"prog", "--epochs=99999999999999999999",
                        "--alpha=1e999", "--scale=1e-400"});
  EXPECT_THROW(cli.get_int("epochs", 0), CheckError);
  EXPECT_THROW(cli.get_double("alpha", 0), CheckError);  // overflows to inf
  EXPECT_THROW(cli.get_double("scale", 0), CheckError);  // underflows
}

TEST(Cli, NumericFlagsAcceptSignsAndExponents) {
  const Cli cli = make({"prog", "--seed=-3", "--alpha=-2.5e-3",
                        "--scale=1e2", "--shift", "-7"});
  EXPECT_EQ(cli.get_int("seed", 0), -3);
  EXPECT_DOUBLE_EQ(cli.get_double("alpha", 0), -2.5e-3);
  EXPECT_DOUBLE_EQ(cli.get_double("scale", 0), 100.0);
  EXPECT_EQ(cli.get_int("shift", 0), -7);
  EXPECT_THROW(cli.get_int("scale", 0), CheckError);  // not an integer
}

TEST(Cli, Positional) {
  const Cli cli = make({"prog", "pos1", "--k=1", "pos2"});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "pos1");
  EXPECT_EQ(cli.positional()[1], "pos2");
  EXPECT_EQ(cli.program(), "prog");
}

TEST(Cli, Has) {
  const Cli cli = make({"prog", "--x=1"});
  EXPECT_TRUE(cli.has("x"));
  EXPECT_FALSE(cli.has("y"));
}

}  // namespace
}  // namespace parsgd
