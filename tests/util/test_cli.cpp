#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace hymem {
namespace {

CliArgs parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv(args);
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ParsesEqualsForm) {
  const auto args = parse({"prog", "--scale=16", "--policy=two-lru"});
  EXPECT_EQ(args.get_uint("scale", 1), 16u);
  EXPECT_EQ(args.get("policy"), "two-lru");
}

TEST(Cli, ParsesSpaceForm) {
  const auto args = parse({"prog", "--scale", "8"});
  EXPECT_EQ(args.get_uint("scale", 1), 8u);
}

TEST(Cli, BooleanFlags) {
  const auto args = parse({"prog", "--csv", "--verbose=false"});
  EXPECT_TRUE(args.get_bool("csv"));
  EXPECT_FALSE(args.get_bool("verbose", true));
  EXPECT_FALSE(args.get_bool("absent", false));
  EXPECT_TRUE(args.get_bool("absent", true));
}

TEST(Cli, BadBooleanThrows) {
  const auto args = parse({"prog", "--flag=maybe"});
  EXPECT_THROW(args.get_bool("flag"), std::invalid_argument);
}

TEST(Cli, Positionals) {
  const auto args = parse({"prog", "input.trc", "--x=1", "output.csv"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.trc");
  EXPECT_EQ(args.positional()[1], "output.csv");
}

TEST(Cli, DefaultsWhenAbsent) {
  const auto args = parse({"prog"});
  EXPECT_EQ(args.get("missing", "def"), "def");
  EXPECT_EQ(args.get_int("missing", -3), -3);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 2.5), 2.5);
  EXPECT_FALSE(args.has("missing"));
}

TEST(Cli, DoubleValues) {
  const auto args = parse({"prog", "--frac=0.75"});
  EXPECT_DOUBLE_EQ(args.get_double("frac", 0.0), 0.75);
}

TEST(Cli, MalformedNumbersThrowNamingTheFlag) {
  const auto args = parse({"prog", "--scale", "abc", "--seed=12x", "--frac",
                           "0.5.1", "--empty="});
  for (const char* flag : {"scale", "seed", "empty"}) {
    try {
      (void)args.get_uint(flag, 1);
      ADD_FAILURE() << flag << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + flag),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)args.get_double("frac", 0.0), std::invalid_argument);
  EXPECT_THROW((void)args.get_int("scale", 0), std::invalid_argument);
}

TEST(Cli, NegativeUnsignedIsRejectedNotWrapped) {
  // stoull used to accept "-1" and wrap it to 2^64 - 1.
  const auto args = parse({"prog", "--scale=-1", "--offset=-1"});
  EXPECT_THROW((void)args.get_uint("scale", 1), std::invalid_argument);
  EXPECT_EQ(args.get_int("offset", 0), -1);
}

TEST(Cli, OutOfRangeAndNonFiniteRejected) {
  const auto args = parse({"prog", "--big=18446744073709551616",
                           "--max=18446744073709551615", "--inf=inf",
                           "--nan=nan", "--tiny=1e-3"});
  EXPECT_THROW((void)args.get_uint("big", 0), std::invalid_argument);
  EXPECT_EQ(args.get_uint("max", 0), 18446744073709551615u);
  EXPECT_THROW((void)args.get_double("inf", 0.0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("nan", 0.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(args.get_double("tiny", 0.0), 1e-3);
}

TEST(Cli, ProgramName) {
  const auto args = parse({"myprog"});
  EXPECT_EQ(args.program(), "myprog");
}

}  // namespace
}  // namespace hymem
