#include "util/flags.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace hypertree {
namespace {

Flags ParseArgs(std::vector<std::string> args) {
  std::vector<char*> argv = {const_cast<char*>("prog")};
  for (auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  return Flags::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, EqualsForm) {
  Flags f = ParseArgs({"--name=value", "--n=42", "--ratio=0.5"});
  EXPECT_TRUE(f.Has("name"));
  EXPECT_EQ(f.GetString("name"), "value");
  EXPECT_EQ(f.GetInt("n"), 42);
  EXPECT_DOUBLE_EQ(f.GetDouble("ratio"), 0.5);
}

TEST(FlagsTest, ValuesOnlyAttachWithEquals) {
  // "--plant input.hg" must keep input.hg positional (boolean flag
  // followed by a file), so space-separated values are not supported.
  Flags f = ParseArgs({"--plant", "input.hg"});
  EXPECT_TRUE(f.GetBool("plant"));
  EXPECT_EQ(f.positional(), (std::vector<std::string>{"input.hg"}));
}

TEST(FlagsTest, BareBooleans) {
  Flags f = ParseArgs({"--verbose", "--quiet=false"});
  EXPECT_TRUE(f.GetBool("verbose"));
  EXPECT_FALSE(f.GetBool("quiet", true));
  EXPECT_FALSE(f.GetBool("absent"));
  EXPECT_TRUE(f.GetBool("absent", true));
}

TEST(FlagsTest, Positional) {
  Flags f = ParseArgs({"--a=1", "input.hg", "more"});
  EXPECT_EQ(f.positional(),
            (std::vector<std::string>{"input.hg", "more"}));
}

TEST(FlagsTest, CheckKnownNamesEachUnknownFlag) {
  Flags ok = ParseArgs({"--method=bb", "--quiet", "input.hg"});
  EXPECT_TRUE(ok.CheckKnown({"method", "quiet", "seed"}));

  // A misspelled value flag and a bare unknown flag are both reported;
  // known names and positional arguments are not.
  Flags bad = ParseArgs({"--method=portfolio", "--time-limt=0.001",
                         "--no-such-flag", "input.hg"});
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(bad.CheckKnown({"method", "time-limit"}));
  std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("--time-limt"), std::string::npos) << err;
  EXPECT_NE(err.find("--no-such-flag"), std::string::npos) << err;
  EXPECT_EQ(err.find("--method"), std::string::npos) << err;
  EXPECT_EQ(err.find("input.hg"), std::string::npos) << err;
}

TEST(FlagsTest, DefaultsOnAbsentOrBad) {
  Flags f = ParseArgs({"--n=notanumber"});
  EXPECT_EQ(f.GetInt("n", 9), 9);
  EXPECT_EQ(f.GetInt("missing", -3), -3);
  EXPECT_EQ(f.GetString("missing", "d"), "d");
  EXPECT_DOUBLE_EQ(f.GetDouble("missing", 1.5), 1.5);
}

}  // namespace
}  // namespace hypertree
