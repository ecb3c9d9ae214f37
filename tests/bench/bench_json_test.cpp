#include "bench_json.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <sstream>
#include <string>

namespace pmemflow::bench {
namespace {

class BenchJsonTest : public ::testing::Test {
 protected:
  /// A file only the running test writes: named after the test itself
  /// (each parameterized instance included), so test processes running
  /// concurrently under `ctest -j` never share one.
  [[nodiscard]] static std::string path_for(const char* name) {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string test = info->test_suite_name();
    test += '.';
    test += info->name();
    for (char& c : test) {
      if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
    }
    return ::testing::TempDir() + "bench_json_" + test + "_" + name + ".json";
  }

  static void write_file(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.is_open());
    out << text;
  }

  [[nodiscard]] static std::string read_file(const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }
};

TEST_F(BenchJsonTest, MissingFileStartsEmptyAndWrites) {
  const std::string path = path_for("fresh");
  std::remove(path.c_str());
  BenchJson json(path);
  json.set_section("alpha", {{"x", 1.0}, {"y", 2.5}});
  ASSERT_TRUE(json.write());
  EXPECT_EQ(read_file(path),
            "{\n  \"alpha\": {\"x\": 1, \"y\": 2.5}\n}\n");
}

TEST_F(BenchJsonTest, ReadRewriteIsByteStable) {
  const std::string path = path_for("stable");
  {
    BenchJson json(path);
    json.set_section("alpha", {{"x", 1.0}});
    json.set_section("beta", {{"y", 0.125}});
    ASSERT_TRUE(json.write());
  }
  const std::string first = read_file(path);
  {
    BenchJson json(path);  // read -> rewrite with no changes
    ASSERT_TRUE(json.write());
  }
  EXPECT_EQ(read_file(path), first);
}

TEST_F(BenchJsonTest, EscapedSectionNamesSurviveRoundTrip) {
  // Regression: parse_string dropped the backslash of every escape
  // despite the "keep escapes raw" intent, so a section named with \"
  // or \\ was rewritten corrupted (e.g. "he said \"hi\"" came back as
  // "he said "hi"" — invalid JSON).
  const std::string path = path_for("escapes");
  const std::string original =
      "{\n"
      "  \"plain\": {\"v\": 1},\n"
      "  \"he said \\\"hi\\\"\": {\"v\": 2},\n"
      "  \"back\\\\slash and \\t tab\": {\"v\": 3}\n"
      "}\n";
  write_file(path, original);
  {
    BenchJson json(path);  // read -> rewrite untouched sections
    ASSERT_TRUE(json.write());
  }
  EXPECT_EQ(read_file(path), original);

  // A second cycle that replaces an unrelated section must still keep
  // the escaped names byte-exact.
  {
    BenchJson json(path);
    json.set_section("plain", {{"v", 4.0}});
    ASSERT_TRUE(json.write());
  }
  const std::string rewritten = read_file(path);
  EXPECT_NE(rewritten.find("\"he said \\\"hi\\\"\": {\"v\": 2}"),
            std::string::npos);
  EXPECT_NE(rewritten.find("\"back\\\\slash and \\t tab\": {\"v\": 3}"),
            std::string::npos);
  EXPECT_NE(rewritten.find("\"plain\": {\"v\": 4}"), std::string::npos);
}

TEST_F(BenchJsonTest, EscapedStringsInsideValuesSurvive) {
  const std::string path = path_for("value_escapes");
  const std::string original =
      "{\n"
      "  \"notes\": {\"label\": \"quote \\\" brace } bracket ]\"}\n"
      "}\n";
  write_file(path, original);
  BenchJson json(path);
  json.set_section("other", {{"v", 1.0}});
  ASSERT_TRUE(json.write());
  EXPECT_NE(read_file(path).find(
                "\"notes\": {\"label\": \"quote \\\" brace } bracket ]\"}"),
            std::string::npos);
}

TEST_F(BenchJsonTest, NestedArraysAndObjectsAreCapturedVerbatim) {
  const std::string path = path_for("nested");
  const std::string nested =
      "{\"series\": [1, 2.5, [3, 4]], \"meta\": {\"inner\": {\"k\": [5]}, "
      "\"s\": \"[{,}]\"}}";
  write_file(path, "{\n  \"deep\": " + nested + ",\n  \"flat\": 7\n}\n");
  BenchJson json(path);
  json.set_section("added", {{"v", 1.0}});
  ASSERT_TRUE(json.write());
  const std::string rewritten = read_file(path);
  EXPECT_NE(rewritten.find("\"deep\": " + nested), std::string::npos);
  EXPECT_NE(rewritten.find("\"flat\": 7"), std::string::npos);
  EXPECT_NE(rewritten.find("\"added\": {\"v\": 1}"), std::string::npos);
}

TEST_F(BenchJsonTest, TopLevelArraySectionRoundTrips) {
  const std::string path = path_for("array");
  write_file(path, "{\"runs\": [{\"t\": 1}, {\"t\": 2}]}\n");
  BenchJson json(path);
  ASSERT_TRUE(json.write());
  EXPECT_NE(read_file(path).find("\"runs\": [{\"t\": 1}, {\"t\": 2}]"),
            std::string::npos);
}

class BenchJsonMalformedTest
    : public BenchJsonTest,
      public ::testing::WithParamInterface<const char*> {};

TEST_P(BenchJsonMalformedTest, MalformedInputStartsEmpty) {
  const std::string path = path_for("malformed");
  write_file(path, GetParam());
  BenchJson json(path);
  // A malformed file must not leak partial sections into the rewrite.
  ASSERT_TRUE(json.write());
  EXPECT_EQ(read_file(path), "{\n}\n");
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, BenchJsonMalformedTest,
    ::testing::Values(
        "{\"name\" 1}",               // missing colon
        "{\"unterminated: 1}",        // string never closes
        "{\"a\": [1, 2",              // array never closes
        "{\"a\": {\"nested\": 1",     // nested object never closes
        "{\"a\": \"trailing\\",       // escape at end of input
        "{\"a\": }",                  // empty value
        "not json at all"));          // no leading brace

}  // namespace
}  // namespace pmemflow::bench
