// Unit tests for the common utility layer.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace aurora {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 2000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextRangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.next_range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStat rs;
  for (int i = 0; i < 50000; ++i) rs.add(rng.next_normal());
  EXPECT_NEAR(rs.mean(), 0.0, 0.03);
  EXPECT_NEAR(rs.stddev(), 1.0, 0.03);
}

TEST(Rng, PowerLawBoundsAndSkew) {
  Rng rng(17);
  RunningStat rs;
  std::uint64_t ones = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto x = rng.next_power_law(2.5, 1000);
    EXPECT_GE(x, 1u);
    EXPECT_LE(x, 1000u);
    rs.add(static_cast<double>(x));
    ones += (x == 1);
  }
  // Pareto alpha=2.5: P(X rounds to 1) is large, mean small but > 1.
  EXPECT_GT(ones, 10000u);
  EXPECT_GT(rs.mean(), 1.0);
  EXPECT_LT(rs.mean(), 5.0);
}

TEST(Rng, WeightedSamplingFollowsWeights) {
  Rng rng(19);
  const std::vector<double> w = {1.0, 0.0, 3.0};
  std::array<int, 3> hits{};
  for (int i = 0; i < 20000; ++i) ++hits[rng.next_weighted(w)];
  EXPECT_EQ(hits[1], 0);
  EXPECT_NEAR(static_cast<double>(hits[2]) / hits[0], 3.0, 0.3);
}

TEST(Rng, ForkIsIndependentStream) {
  Rng a(23);
  Rng b = a.fork();
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RunningStat, BasicMoments) {
  RunningStat rs;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.add(x);
  EXPECT_EQ(rs.count(), 8u);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
  EXPECT_NEAR(rs.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(rs.sum(), 40.0);
}

TEST(RunningStat, MergeMatchesCombined) {
  RunningStat a, b, all;
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double(-5, 5);
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h(1.0, 4);
  h.add(0.5);
  h.add(1.5);
  h.add(3.5);
  h.add(100.0);  // overflow -> last bucket
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(3), 2u);
}

TEST(Histogram, Quantile) {
  Histogram h(1.0, 10);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i % 10));
  // Nearest-rank: rank 50 of 100 falls in bucket 4, rank 100 in bucket 9,
  // both reported at the bucket's lower edge (the exact sample value here).
  EXPECT_EQ(h.quantile(0.5), 4.0);
  EXPECT_EQ(h.quantile(1.0), 9.0);
}

TEST(Histogram, QuantileSingleSampleReportsItsBucket) {
  // One exact-width sample: every quantile is that sample, not bucket 0's
  // edge (the old truncation bug) and not the bucket's upper edge.
  Histogram h(1.0, 10);
  h.add(5.0);
  EXPECT_EQ(h.quantile(0.0), 5.0);
  EXPECT_EQ(h.quantile(0.5), 5.0);
  EXPECT_EQ(h.quantile(1.0), 5.0);
}

TEST(Histogram, QuantileSkipsEmptyBucketPrefix) {
  Histogram h(2.0, 8);
  h.add(10.0);  // bucket 5
  h.add(12.0);  // bucket 6
  EXPECT_EQ(h.quantile(0.0), 10.0);
  EXPECT_EQ(h.quantile(0.5), 10.0);
  EXPECT_EQ(h.quantile(1.0), 12.0);
}

TEST(Histogram, QuantileEmptyIsZero) {
  const Histogram h(1.0, 4);
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.quantile(1.0), 0.0);
}

TEST(Percentile, ExactNearestRank) {
  const std::vector<double> v = {30.0, 10.0, 20.0, 40.0};
  EXPECT_EQ(percentile(v, 0.0), 10.0);
  EXPECT_EQ(percentile(v, 0.25), 10.0);
  EXPECT_EQ(percentile(v, 0.5), 20.0);
  EXPECT_EQ(percentile(v, 0.51), 30.0);
  EXPECT_EQ(percentile(v, 0.99), 40.0);
  EXPECT_EQ(percentile(v, 1.0), 40.0);
}

TEST(Percentile, SingleAndEmpty) {
  EXPECT_EQ(percentile({}, 0.5), 0.0);
  EXPECT_EQ(percentile({7.5}, 0.0), 7.5);
  EXPECT_EQ(percentile({7.5}, 0.5), 7.5);
  EXPECT_EQ(percentile({7.5}, 1.0), 7.5);
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a(1.0, 4);
  Histogram b(1.0, 4);
  a.add(0.5);
  a.add(2.5);
  b.add(2.5);
  b.add(100.0);  // overflow bucket
  a.merge(b);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_EQ(a.bucket_count(0), 1u);
  EXPECT_EQ(a.bucket_count(2), 2u);
  EXPECT_EQ(a.bucket_count(3), 1u);
}

TEST(Histogram, MergeRejectsMismatchedLayout) {
  Histogram a(1.0, 4);
  const Histogram wrong_width(2.0, 4);
  const Histogram wrong_buckets(1.0, 8);
  EXPECT_THROW(a.merge(wrong_width), Error);
  EXPECT_THROW(a.merge(wrong_buckets), Error);
  // A failed merge leaves the target untouched.
  EXPECT_EQ(a.total(), 0u);
}

TEST(Histogram, ResetClears) {
  Histogram h(1.0, 4);
  h.add(1.5);
  h.reset();
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.bucket_count(1), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(CounterSet, IncrementAndMerge) {
  CounterSet a, b;
  a.inc("x");
  a.inc("x", 4);
  b.inc("x");
  b.inc("y", 2);
  a.merge(b);
  EXPECT_EQ(a.get("x"), 6u);
  EXPECT_EQ(a.get("y"), 2u);
  EXPECT_EQ(a.get("missing"), 0u);
}

TEST(Strings, ToFixed) {
  EXPECT_EQ(to_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(to_fixed(2.0, 0), "2");
}

TEST(Strings, HumanBytes) {
  EXPECT_EQ(human_bytes(512), "512 B");
  EXPECT_EQ(human_bytes(2048), "2.00 KB");
  EXPECT_EQ(human_bytes(100ull * 1024 * 1024), "100.0 MB");
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_left("abcdef", 4), "abcdef");
}

TEST(Strings, JsonEscape) {
  EXPECT_EQ(json_escape("plain/path #1"), "plain/path #1");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nnext\ttab"), "line\\u000anext\\u0009tab");
  EXPECT_EQ(json_escape(std::string("nul\0", 4)), "nul\\u0000");
}

TEST(AsciiTable, RendersAlignedRows) {
  AsciiTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "23456"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| alpha |     1 |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 23456 |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(AsciiTable, RejectsMismatchedRow) {
  AsciiTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Cli, ParsesFlagsAndDefaults) {
  const char* argv[] = {"prog", "--scale=0.5", "--name=cora", "--verbose",
                        "--count=42"};
  CliArgs args(5, argv);
  EXPECT_TRUE(args.has("scale"));
  EXPECT_DOUBLE_EQ(args.get_double("scale", 1.0), 0.5);
  EXPECT_EQ(args.get_string("name", "x"), "cora");
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_EQ(args.get_uint("count", 0), 42u);
  EXPECT_EQ(args.get_uint("missing", 7), 7u);
}

TEST(Cli, RejectsPositional) {
  const char* argv[] = {"prog", "positional"};
  EXPECT_THROW(CliArgs(2, argv), Error);
}

TEST(Cli, UnknownFlagsAreDetected) {
  const char* argv[] = {"prog", "--critpath-oot=x", "--scale=0.5"};
  const CliArgs unchecked(3, argv);
  EXPECT_EQ(unchecked.unknown_flags({"scale", "critpath-out"}),
            std::vector<std::string>{"critpath-oot"});
  EXPECT_TRUE(unchecked.unknown_flags({"scale", "critpath-oot"}).empty());
  // The checking constructor throws, naming the typo and the accepted set.
  try {
    const CliArgs checked(3, argv, {"scale", "critpath-out"});
    FAIL() << "expected Error for unknown flag";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("critpath-oot"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("--critpath-out"),
              std::string::npos);
  }
}

TEST(Cli, GetUintValidates) {
  const char* argv[] = {"prog", "--chips=4", "--bad=-1", "--junk=4x",
                        "--big=5000000000"};
  const CliArgs args(5, argv);
  EXPECT_EQ(args.get_uint("chips", 1), 4u);
  EXPECT_EQ(args.get_uint("missing", 7), 7u);
  EXPECT_THROW((void)args.get_uint("bad", 1), Error);   // used to wrap
  EXPECT_THROW((void)args.get_uint("junk", 1), Error);  // trailing garbage
  EXPECT_THROW((void)args.get_uint("big", 1), Error);   // > UINT32_MAX
  EXPECT_THROW((void)args.get_uint("chips", 1, 8, 64), Error);  // below min
  // The same rules for text outside a flag (one CSV entry).
  EXPECT_EQ(parse_uint("4294967295", "entry"), UINT32_MAX);
  EXPECT_THROW((void)parse_uint("+4", "entry"), Error);  // sign
  EXPECT_THROW((void)parse_uint(" 4", "entry"), Error);  // whitespace
  EXPECT_THROW((void)parse_uint("", "entry"), Error);
}

TEST(Cli, GetBoolValidates) {
  const char* argv[] = {"prog", "--bare",  "--on=1",   "--yes=yes",
                        "--off=0", "--no=no", "--f=false", "--typo=flase",
                        "--word=on"};
  const CliArgs args(9, argv);
  EXPECT_TRUE(args.get_bool("bare", false));
  EXPECT_TRUE(args.get_bool("on", false));
  EXPECT_TRUE(args.get_bool("yes", false));
  EXPECT_FALSE(args.get_bool("off", true));
  EXPECT_FALSE(args.get_bool("no", true));
  EXPECT_FALSE(args.get_bool("f", true));
  EXPECT_TRUE(args.get_bool("missing", true));
  // Anything else throws, naming the flag.
  EXPECT_THROW((void)args.get_bool("word", true), Error);
  try {
    (void)args.get_bool("typo", false);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--typo=flase"), std::string::npos);
  }
}

TEST(Cli, RejectUnreadNamesFlagAndPath) {
  const char* argv[] = {"prog", "--requests=4", "--faults=3", "--rate=9"};
  const CliArgs args(4, argv);
  EXPECT_EQ(args.get_uint("requests", 1), 4u);
  EXPECT_EQ(args.get_string("unset", "x"), "x");  // absent flags are fine
  try {
    args.reject_unread("a closed-loop run");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "a closed-loop run does not use --faults --rate");
  }
  (void)args.get_double("rate", 1.0);
  (void)args.get_uint("faults", 1);
  args.reject_unread("an open-loop run");  // everything read now
}

TEST(Check, ThrowsWithMessage) {
  try {
    AURORA_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
  }
}

TEST(ParallelFor, MatchesSerialResult) {
  std::vector<int> out(64, 0);
  parallel_for(out.size(), 4,
               [&](std::size_t i) { out[i] = static_cast<int>(i * i); });
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], static_cast<int>(i * i));
}

}  // namespace
}  // namespace aurora
