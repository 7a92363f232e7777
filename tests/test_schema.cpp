// Schema model: spec-line round trips, flag grammar, wraparound deltas.
#include <gtest/gtest.h>

#include "collect/schema.hpp"
#include "util/counter.hpp"
#include "util/rng.hpp"

namespace tacc::collect {
namespace {

TEST(Schema, SpecLineFormat) {
  Schema s("rapl", {{"energy_pkg", true, 32, "uJ", 15.2587890625},
                    {"flag", false, 64, "", 1.0}});
  const std::string line = s.spec_line();
  EXPECT_TRUE(line.rfind("!rapl ", 0) == 0);
  EXPECT_NE(line.find("energy_pkg,E,W=32,U=uJ,S="), std::string::npos);
  EXPECT_NE(line.find(" flag"), std::string::npos);
  EXPECT_EQ(line.find("flag,E"), std::string::npos);  // gauge: no E flag
}

TEST(Schema, ParseRoundTrip) {
  Schema original("ib", {{"port_rcv_data", true, 64, "bytes", 4.0},
                         {"port_rcv_pkts", true, 64, "packets", 1.0},
                         {"gauge_thing", false, 48, "KB", 1.0}});
  const Schema parsed = Schema::parse(original.spec_line());
  EXPECT_EQ(parsed.type(), "ib");
  ASSERT_EQ(parsed.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(parsed.entry(i).key, original.entry(i).key);
    EXPECT_EQ(parsed.entry(i).cumulative, original.entry(i).cumulative);
    EXPECT_EQ(parsed.entry(i).width_bits, original.entry(i).width_bits);
    EXPECT_EQ(parsed.entry(i).unit, original.entry(i).unit);
    EXPECT_DOUBLE_EQ(parsed.entry(i).scale, original.entry(i).scale);
  }
}

TEST(Schema, ParseErrors) {
  EXPECT_THROW(Schema::parse("cpu user,E"), std::invalid_argument);  // no '!'
  EXPECT_THROW(Schema::parse("!"), std::invalid_argument);           // no type
  EXPECT_THROW(Schema::parse("!cpu user,X"), std::invalid_argument);
  EXPECT_THROW(Schema::parse("!cpu user,W=0"), std::invalid_argument);
  EXPECT_THROW(Schema::parse("!cpu user,W=65"), std::invalid_argument);
  EXPECT_THROW(Schema::parse("!cpu user,W=abc"), std::invalid_argument);
  EXPECT_THROW(Schema::parse("!cpu user,S=xyz"), std::invalid_argument);
}

TEST(Schema, IndexOf) {
  Schema s("cpu", {{"user", true, 64, "", 1.0}, {"idle", true, 64, "", 1.0}});
  EXPECT_EQ(s.index_of("user"), 0u);
  EXPECT_EQ(s.index_of("idle"), 1u);
  EXPECT_FALSE(s.index_of("nope").has_value());
}

TEST(Schema, RandomRoundTripProperty) {
  util::Rng rng("schema.prop", 1);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<SchemaEntry> entries;
    const int n = static_cast<int>(rng.uniform_int(1, 8));
    for (int i = 0; i < n; ++i) {
      SchemaEntry e;
      e.key = "k" + std::to_string(i);
      e.cumulative = rng.bernoulli(0.7);
      e.width_bits = static_cast<int>(rng.uniform_int(16, 64));
      e.unit = rng.bernoulli(0.5) ? "bytes" : "";
      e.scale = rng.bernoulli(0.3) ? rng.uniform(0.001, 64.0) : 1.0;
      entries.push_back(e);
    }
    Schema s("t" + std::to_string(trial), entries);
    const Schema parsed = Schema::parse(s.spec_line());
    ASSERT_EQ(parsed.size(), s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
      EXPECT_EQ(parsed.entry(i).key, s.entry(i).key);
      EXPECT_EQ(parsed.entry(i).cumulative, s.entry(i).cumulative);
      EXPECT_EQ(parsed.entry(i).width_bits, s.entry(i).width_bits);
      EXPECT_DOUBLE_EQ(parsed.entry(i).scale, s.entry(i).scale);
    }
  }
}

TEST(WrapDelta, FullWidthUsesUnsignedWrap) {
  EXPECT_EQ(util::counter_delta(10, 15, 64), 5u);
  EXPECT_EQ(util::counter_delta(~0ULL, 4, 64), 5u);
}

TEST(WrapDelta, NarrowCounterSingleWrap) {
  // 32-bit counter wrapped once: prev near top, curr near bottom.
  const std::uint64_t top = (1ULL << 32) - 10;
  EXPECT_EQ(util::counter_delta(top, 5, 32), 15u);
}

TEST(WrapDelta, NoWrapNarrow) {
  EXPECT_EQ(util::counter_delta(100, 250, 32), 150u);
  EXPECT_EQ(util::counter_delta(100, 100, 32), 0u);
}

TEST(WrapDelta, FortyEightBit) {
  const std::uint64_t top = (1ULL << 48) - 1;
  EXPECT_EQ(util::counter_delta(top, 0, 48), 1u);
  EXPECT_EQ(util::counter_delta(0, top, 48), top);
}

TEST(WrapDelta, PropertyDeltaRecoversIncrement) {
  util::Rng rng("wrap.prop", 2);
  for (int trial = 0; trial < 200; ++trial) {
    const int width = static_cast<int>(rng.uniform_int(8, 63));
    const std::uint64_t modulus = 1ULL << width;
    const std::uint64_t start =
        static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30)) % modulus;
    const std::uint64_t inc =
        static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30)) %
        modulus;  // less than one full wrap
    const std::uint64_t end = (start + inc) % modulus;
    EXPECT_EQ(util::counter_delta(start, end, width), inc);
  }
}

}  // namespace
}  // namespace tacc::collect
