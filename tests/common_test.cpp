// Unit tests: result, units, hash, path, rng, stats, codec, crc, config.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/config.h"
#include "common/crc32.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/path.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"

namespace gekko {
namespace {

// ---------- Result / Status ----------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::ok);
}

TEST(StatusTest, ErrorCarriesContext) {
  Status st{Errc::not_found, "/foo/bar"};
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.to_string(), "not_found: /foo/bar");
}

TEST(ResultTest, ValueRoundTrip) {
  Result<int> r = 42;
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(ResultTest, ErrorPropagates) {
  Result<int> r = Errc::timed_out;
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), Errc::timed_out);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, ErrnoMapping) {
  EXPECT_EQ(errc_to_errno(Errc::not_found), ENOENT);
  EXPECT_EQ(errc_to_errno(Errc::exists), EEXIST);
  EXPECT_EQ(errc_to_errno(Errc::not_supported), ENOTSUP);
  EXPECT_EQ(errc_to_errno(Errc::ok), 0);
}

// ---------- units ----------

TEST(UnitsTest, Literals) {
  EXPECT_EQ(1_KiB, 1024u);
  EXPECT_EQ(512_KiB, 512u * 1024u);
  EXPECT_EQ(64_MiB, 64ull * 1024 * 1024);
  EXPECT_EQ(4_GiB, 4ull << 30);
}

TEST(UnitsTest, FormatBytes) {
  EXPECT_EQ(format_bytes(17), "17 B");
  EXPECT_EQ(format_bytes(1536), "1.50 KiB");
  EXPECT_EQ(format_bytes(512_KiB), "512.00 KiB");
}

// ---------- hash ----------

TEST(HashTest, XxhashKnownProperties) {
  // Deterministic, seed-sensitive, length-sensitive.
  EXPECT_EQ(xxhash64("gekko"), xxhash64("gekko"));
  EXPECT_NE(xxhash64("gekko"), xxhash64("gekkofs"));
  EXPECT_NE(xxhash64("gekko", 1), xxhash64("gekko", 2));
  EXPECT_NE(xxhash64(""), xxhash64("a"));
}

TEST(HashTest, XxhashLongInputCoversAllLanes) {
  std::string long_input(1000, 'x');
  std::string other = long_input;
  other[999] = 'y';
  EXPECT_NE(xxhash64(long_input), xxhash64(other));
  other = long_input;
  other[0] = 'y';
  EXPECT_NE(xxhash64(long_input), xxhash64(other));
}

TEST(HashTest, Fnv1aConstexpr) {
  constexpr std::uint64_t h = fnv1a64("abc");
  static_assert(h != 0);
  EXPECT_EQ(h, fnv1a64("abc"));
  EXPECT_NE(fnv1a64("abc"), fnv1a64("abd"));
}

class HashDistributionTest : public ::testing::TestWithParam<int> {};

TEST_P(HashDistributionTest, BalancedOverNodes) {
  // Placement property the whole paper rests on: hashing file paths
  // spreads load evenly. Check max/min bucket ratio over many paths.
  const int nodes = GetParam();
  std::vector<int> buckets(nodes, 0);
  const int paths = nodes * 2000;  // ~2000 expected per bucket
  for (int i = 0; i < paths; ++i) {
    const std::string path = "/bench/dir/file." + std::to_string(i);
    buckets[xxhash64(path) % nodes]++;
  }
  const auto [mn, mx] = std::minmax_element(buckets.begin(), buckets.end());
  // Poisson(2000): 6 sigma is ~ +/-13%; a 1.35 max/min ratio bound is
  // comfortably beyond that while still catching systematic skew.
  EXPECT_GT(*mn, 0);
  EXPECT_LT(static_cast<double>(*mx) / *mn, 1.35)
      << "imbalance too high for " << nodes << " nodes";
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, HashDistributionTest,
                         ::testing::Values(2, 3, 8, 16, 64, 512));

// ---------- path ----------

TEST(PathTest, NormalizeBasics) {
  EXPECT_EQ(*path::normalize("/a/b/c"), "/a/b/c");
  EXPECT_EQ(*path::normalize("//a///b/"), "/a/b");
  EXPECT_EQ(*path::normalize("/a/./b"), "/a/b");
  EXPECT_EQ(*path::normalize("/a/../b"), "/b");
  EXPECT_EQ(*path::normalize("/../.."), "/");
  EXPECT_EQ(*path::normalize("/"), "/");
}

TEST(PathTest, NormalizeRejects) {
  EXPECT_EQ(path::normalize("").code(), Errc::invalid_argument);
  EXPECT_EQ(path::normalize("relative/x").code(), Errc::invalid_argument);
  EXPECT_EQ(path::normalize(std::string(5000, 'a').insert(0, "/")).code(),
            Errc::name_too_long);
  std::string nul = "/a";
  nul.push_back('\0');
  EXPECT_EQ(path::normalize(nul).code(), Errc::invalid_argument);
}

TEST(PathTest, ComponentHelpers) {
  EXPECT_EQ(path::parent("/a/b"), "/a");
  EXPECT_EQ(path::parent("/a"), "/");
  EXPECT_EQ(path::parent("/"), "/");
  EXPECT_EQ(path::basename("/a/b"), "b");
  EXPECT_EQ(path::basename("/"), "");
  EXPECT_EQ(path::depth("/"), 0u);
  EXPECT_EQ(path::depth("/a/b/c"), 3u);
  EXPECT_EQ(path::join("/a", "b"), "/a/b");
  EXPECT_EQ(path::join("/", "b"), "/b");
}

TEST(PathTest, ContainmentPredicates) {
  EXPECT_TRUE(path::is_inside("/a/b", "/a"));
  EXPECT_TRUE(path::is_inside("/a/b/c", "/a"));
  EXPECT_FALSE(path::is_inside("/ab", "/a"));
  EXPECT_FALSE(path::is_inside("/a", "/a"));
  EXPECT_TRUE(path::is_inside("/x", "/"));

  EXPECT_TRUE(path::is_direct_child("/a/b", "/a"));
  EXPECT_FALSE(path::is_direct_child("/a/b/c", "/a"));
  EXPECT_TRUE(path::is_direct_child("/x", "/"));
  EXPECT_FALSE(path::is_direct_child("/x/y", "/"));
}

class PathRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PathRoundTripTest, NormalizedIsFixedPoint) {
  auto first = path::normalize(GetParam());
  ASSERT_TRUE(first.is_ok());
  EXPECT_TRUE(path::is_normalized(*first)) << *first;
  auto second = path::normalize(*first);
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(*first, *second);
}

INSTANTIATE_TEST_SUITE_P(Cases, PathRoundTripTest,
                         ::testing::Values("/", "//", "/a", "/a/b/c",
                                           "/a/../b/./c//", "/a/b/../..",
                                           "/.hidden", "/a.b.c/d"));

// ---------- rng ----------

TEST(RngTest, DeterministicFromSeed) {
  Xoshiro256 a(7), b(7), c(8);
  EXPECT_EQ(a(), b());
  Xoshiro256 a2(7);
  EXPECT_NE(a2(), c());
}

TEST(RngTest, BelowStaysInRange) {
  Xoshiro256 rng(123);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(RngTest, UniformInUnitInterval) {
  Xoshiro256 rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

// ---------- stats ----------

TEST(StatsTest, OnlineMeanStddev) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(StatsTest, MergeMatchesSequential) {
  OnlineStats all, a, b;
  Xoshiro256 rng(42);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform() * 100;
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.stddev(), all.stddev(), 1e-9);
}

TEST(StatsTest, HistogramQuantiles) {
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.add(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(static_cast<double>(h.quantile(0.5)), 500, 40);
  EXPECT_NEAR(static_cast<double>(h.quantile(0.99)), 990, 70);
  EXPECT_NEAR(h.mean(), 500.5, 0.01);
}

TEST(StatsTest, HistogramMerge) {
  LatencyHistogram a, b;
  for (std::uint64_t v = 0; v < 100; ++v) a.add(v);
  for (std::uint64_t v = 100; v < 200; ++v) b.add(v);
  a.merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_GE(a.quantile(0.99), 190u);
}

TEST(StatsTest, QuantileEdgeSemantics) {
  LatencyHistogram empty;
  EXPECT_EQ(empty.quantile(0.0), 0u);
  EXPECT_EQ(empty.quantile(0.5), 0u);
  EXPECT_EQ(empty.quantile(1.0), 0u);

  LatencyHistogram h;
  h.add(100);
  h.add(5000);
  // q <= 0 → lower bound of first occupied bucket; q >= 1 → upper
  // bound of the last. Both must bracket the true sample.
  EXPECT_LE(h.quantile(0.0), 100u);
  EXPECT_LE(h.quantile(-1.0), 100u);
  EXPECT_GE(h.quantile(1.0), 5000u);
  EXPECT_GE(h.quantile(2.0), 5000u);
}

TEST(StatsTest, QuantileLinearRangeIsExact) {
  // Values < kSub (16) map 1:1 to buckets: quantiles there are exact.
  LatencyHistogram h;
  for (std::uint64_t v = 0; v < LatencyHistogram::kSub; ++v) h.add(v);
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(1.0), 15u);
  EXPECT_EQ(h.quantile(0.5), 7u);
}

TEST(StatsTest, QuantileBucketBoundaryValues) {
  // 15 is the last exact value; 16 starts the first log-scaled bucket;
  // 2^k and 2^k - 1 straddle bucket-group boundaries. A single-sample
  // histogram must report a quantile inside the sample's own bucket:
  // >= the value's bucket lower bound, and within one sub-bucket width
  // above the value.
  const std::uint64_t cases[] = {15,        16,         31,         32,
                                 1023,      1024,       (1u << 20) - 1,
                                 1u << 20,  (1ull << 40) - 1, 1ull << 40};
  for (const std::uint64_t v : cases) {
    LatencyHistogram h;
    h.add(v);
    const auto q = h.quantile(0.5);
    const std::uint64_t width = v < 16 ? 0 : (v >> 4);  // sub-bucket span
    EXPECT_GE(q, LatencyHistogram::lower_bound_of(
                     LatencyHistogram::index_of(v)))
        << "v=" << v;
    EXPECT_LE(q, v + width) << "v=" << v;
    EXPECT_GE(q + width, v) << "v=" << v;
  }
}

TEST(StatsTest, IndexOfIsMonotonic) {
  std::size_t prev = 0;
  for (std::uint64_t v = 0; v < 100000; ++v) {
    const auto idx = LatencyHistogram::index_of(v);
    EXPECT_GE(idx, prev) << "v=" << v;
    EXPECT_LT(idx, LatencyHistogram::kBuckets);
    prev = idx;
  }
}

TEST(StatsTest, MergeIntoEmptyKeepsAllPositiveMin) {
  // Regression: the default-constructed min_ of 0.0 is a sentinel and
  // must not survive a merge with real all-positive samples.
  OnlineStats a, b;
  b.add(5.0);
  b.add(9.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 5.0);
  EXPECT_EQ(a.max(), 9.0);

  // Merging an empty shard INTO a populated one must be a no-op.
  OnlineStats c;
  b.merge(c);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(b.min(), 5.0);

  // All-negative samples: the 0.0 max sentinel must not survive either.
  OnlineStats d, e;
  e.add(-7.0);
  e.add(-3.0);
  d.merge(e);
  EXPECT_EQ(d.min(), -7.0);
  EXPECT_EQ(d.max(), -3.0);
}

// ---------- logging ----------

class LoggingTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_level_ = log::level(); }
  void TearDown() override {
    log::set_sink(nullptr);
    log::set_level(saved_level_);
  }
  log::Level saved_level_ = log::Level::warn;
};

TEST_F(LoggingTest, SinkCapturesFormattedLine) {
  std::vector<std::pair<log::Level, std::string>> lines;
  log::set_sink([&](log::Level lvl, std::string_view line) {
    lines.emplace_back(lvl, std::string(line));
  });
  log::set_level(log::Level::info);
  GEKKO_INFO("unit") << "hello " << 42;
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].first, log::Level::info);
  // Prefix carries a monotonic timestamp and a compact thread id.
  EXPECT_NE(lines[0].second.find("[t"), std::string::npos) << lines[0].second;
  EXPECT_NE(lines[0].second.find("unit: hello 42"), std::string::npos)
      << lines[0].second;
  EXPECT_EQ(lines[0].second.front(), '[') << lines[0].second;
}

TEST_F(LoggingTest, DisabledLevelEvaluatesNoArguments) {
  std::vector<std::string> lines;
  log::set_sink([&](log::Level, std::string_view line) {
    lines.emplace_back(line);
  });
  log::set_level(log::Level::warn);
  int evaluations = 0;
  auto expensive = [&evaluations] {
    ++evaluations;
    return std::string("costly");
  };
  GEKKO_DEBUG("unit") << expensive();
  EXPECT_EQ(evaluations, 0) << "disabled level must not touch arguments";
  EXPECT_TRUE(lines.empty());
  GEKKO_WARN("unit") << expensive();
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(lines.size(), 1u);
}

TEST_F(LoggingTest, MacroIsSafeInUnbracedIfElse) {
  // GEKKO_LOG is a single ternary expression, so an un-braced
  // `if ... GEKKO_LOG ... else` must bind the else to the OUTER if.
  std::vector<std::string> lines;
  log::set_sink([&](log::Level, std::string_view line) {
    lines.emplace_back(line);
  });
  log::set_level(log::Level::info);
  bool else_taken = false;
  if (false)
    GEKKO_INFO("unit") << "not reached";
  else
    else_taken = true;
  EXPECT_TRUE(else_taken);
  EXPECT_TRUE(lines.empty());
}

TEST_F(LoggingTest, ThreadNumbersAreCompactAndStable) {
  const unsigned mine = log::thread_number();
  EXPECT_EQ(log::thread_number(), mine);  // stable per thread
  unsigned other = 0;
  std::thread([&] { other = log::thread_number(); }).join();
  EXPECT_NE(other, mine);
}

// ---------- codec ----------

TEST(CodecTest, FixedWidthRoundTrip) {
  std::vector<std::uint8_t> buf;
  Encoder enc(&buf);
  enc.u8(0xab);
  enc.u16(0xbeef);
  enc.u32(0xdeadbeef);
  enc.u64(0x0123456789abcdefULL);
  enc.i64(-42);
  enc.f64(3.14159);

  Decoder dec(buf);
  EXPECT_EQ(*dec.u8(), 0xab);
  EXPECT_EQ(*dec.u16(), 0xbeef);
  EXPECT_EQ(*dec.u32(), 0xdeadbeefu);
  EXPECT_EQ(*dec.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(*dec.i64(), -42);
  EXPECT_DOUBLE_EQ(*dec.f64(), 3.14159);
  EXPECT_TRUE(dec.done());
}

class VarintTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VarintTest, RoundTrip) {
  std::vector<std::uint8_t> buf;
  Encoder enc(&buf);
  enc.varint(GetParam());
  Decoder dec(buf);
  auto v = dec.varint();
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(*v, GetParam());
  EXPECT_TRUE(dec.done());
}

INSTANTIATE_TEST_SUITE_P(
    Values, VarintTest,
    ::testing::Values(0ULL, 1ULL, 127ULL, 128ULL, 300ULL, 16383ULL, 16384ULL,
                      0xffffffffULL, 0xffffffffffffffffULL));

TEST(CodecTest, StringsWithEmbeddedNul) {
  std::vector<std::uint8_t> buf;
  Encoder enc(&buf);
  std::string s = "a\0b";
  s.push_back('\0');
  enc.str(std::string_view(s.data(), 4));
  enc.str("");
  Decoder dec(buf);
  EXPECT_EQ(dec.str()->size(), 4u);
  EXPECT_EQ(*dec.str(), "");
  EXPECT_TRUE(dec.done());
}

TEST(CodecTest, TruncationDetected) {
  std::vector<std::uint8_t> buf;
  Encoder enc(&buf);
  enc.u64(1);
  Decoder dec(buf.data(), 4);  // half the u64
  EXPECT_EQ(dec.u64().code(), Errc::corruption);
}

TEST(CodecTest, UnterminatedVarintDetected) {
  std::uint8_t bad[] = {0x80, 0x80, 0x80};
  Decoder dec(bad, 3);
  EXPECT_EQ(dec.varint().code(), Errc::corruption);
}

// ---------- crc32 ----------

TEST(Crc32Test, KnownVector) {
  // CRC32C("123456789") = 0xE3069283, a standard check value.
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
}

TEST(Crc32Test, ChainingMatchesOneShot) {
  const std::string data = "hello gekkofs world";
  const std::uint32_t whole = crc32c(data);
  std::uint32_t chained = crc32c(data.substr(0, 7));
  chained = crc32c(data.data() + 7, data.size() - 7, chained);
  EXPECT_EQ(whole, chained);
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  // The sliced loop against the textbook one-byte-at-a-time CRC32C,
  // for random lengths 0..4 KiB starting at every alignment mod 8.
  const auto reference = [](const unsigned char* p, std::size_t len,
                            std::uint32_t init) {
    std::uint32_t c = ~init;
    for (std::size_t i = 0; i < len; ++i) {
      c ^= p[i];
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0x82F63B78U ^ (c >> 1) : c >> 1;
    }
    return ~c;
  };
  SplitMix64 rng(0xC3C3);
  std::vector<unsigned char> buf(4096 + 16);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.next());
  for (std::size_t align = 0; align < 8; ++align) {
    for (int trial = 0; trial < 64; ++trial) {
      const std::size_t len = trial < 16 ? trial : rng.next() % 4097;
      const auto init = static_cast<std::uint32_t>(rng.next());
      const unsigned char* p = buf.data() + align;
      EXPECT_EQ(crc32c(p, len, init), reference(p, len, init))
          << "align=" << align << " len=" << len;
    }
  }
}

TEST(Crc32Test, MaskRoundTrip) {
  const std::uint32_t crc = crc32c("payload");
  EXPECT_EQ(unmask_crc(mask_crc(crc)), crc);
  EXPECT_NE(mask_crc(crc), crc);
}

// ---------- config ----------

TEST(ConfigTest, ParseTypedValues) {
  auto cfg = Config::parse(
      "# deployment\n"
      "nodes = 8\n"
      "chunk_size = 512KiB\n"
      "latency_us = 1.3\n"
      "cache = on\n"
      "name = mogon2  # trailing comment\n");
  ASSERT_TRUE(cfg.is_ok());
  EXPECT_EQ(cfg->get_int("nodes"), 8);
  EXPECT_EQ(cfg->get_size("chunk_size"), 512u * 1024);
  EXPECT_DOUBLE_EQ(cfg->get_double("latency_us"), 1.3);
  EXPECT_TRUE(cfg->get_bool("cache"));
  EXPECT_EQ(cfg->get_string("name"), "mogon2");
  EXPECT_EQ(cfg->get_int("missing", -1), -1);
}

TEST(ConfigTest, ParseErrors) {
  EXPECT_EQ(Config::parse("novalue\n").code(), Errc::invalid_argument);
  EXPECT_EQ(Config::parse("=x\n").code(), Errc::invalid_argument);
}

class SizeParseTest
    : public ::testing::TestWithParam<std::pair<const char*, std::uint64_t>> {
};

TEST_P(SizeParseTest, Parses) {
  auto r = Config::parse_size(GetParam().first);
  ASSERT_TRUE(r.is_ok()) << GetParam().first;
  EXPECT_EQ(*r, GetParam().second);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SizeParseTest,
    ::testing::Values(std::pair{"0", 0ULL}, std::pair{"42", 42ULL},
                      std::pair{"1k", 1024ULL}, std::pair{"8KiB", 8192ULL},
                      std::pair{"64 MiB", 64ULL << 20},
                      std::pair{"2GB", 2ULL << 30},
                      std::pair{"512 b", 512ULL}));

// Fuzz-surface hardening: a value whose scaled size leaves uint64
// used to wrap mod 2^64 ("17179869184g" -> 64 bytes) and configure a
// nonsense limit; it must be an error. The largest representable
// value per suffix still parses.
TEST(ConfigTest, ParseSizeOverflowRejected) {
  EXPECT_FALSE(Config::parse_size("17179869184g").is_ok());
  EXPECT_FALSE(Config::parse_size("18446744073709551615k").is_ok());
  EXPECT_FALSE(Config::parse_size("16777217t").is_ok());

  auto max_t = Config::parse_size("16777215t");
  ASSERT_TRUE(max_t.is_ok());
  EXPECT_EQ(*max_t, 16777215ULL << 40);
  auto max_plain = Config::parse_size("18446744073709551615");
  ASSERT_TRUE(max_plain.is_ok());
  EXPECT_EQ(*max_plain, std::numeric_limits<std::uint64_t>::max());
}

}  // namespace
}  // namespace gekko
