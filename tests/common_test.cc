/**
 * @file
 * Unit tests for the common substrate: Config, Rng, StatRegistry, log.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/config.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/stats.hh"

namespace equalizer
{
namespace
{

// ---------------------------------------------------------------- Config

TEST(Config, ParsesKeyValuePairs)
{
    const Config cfg = Config::fromArgs(
        {"alpha=1", "beta=two", "c=3.5"},
        {{"alpha", "", {}}, {"beta", "", {}}, {"c", "", {}}});
    EXPECT_EQ(cfg.getInt("alpha", 0), 1);
    EXPECT_EQ(cfg.getString("beta", ""), "two");
    EXPECT_DOUBLE_EQ(cfg.getDouble("c", 0.0), 3.5);
}

TEST(Config, ReturnsDefaultsForMissingKeys)
{
    const Config cfg;
    EXPECT_EQ(cfg.getInt("nope", 42), 42);
    EXPECT_EQ(cfg.getString("nope", "d"), "d");
    EXPECT_DOUBLE_EQ(cfg.getDouble("nope", 2.25), 2.25);
    EXPECT_TRUE(cfg.getBool("nope", true));
    EXPECT_FALSE(cfg.contains("nope"));
}

TEST(Config, BoolAcceptsCommonSpellings)
{
    Config cfg;
    cfg.set("a", "true");
    cfg.set("b", "0");
    cfg.set("c", "Yes");
    cfg.set("d", "off");
    EXPECT_TRUE(cfg.getBool("a", false));
    EXPECT_FALSE(cfg.getBool("b", true));
    EXPECT_TRUE(cfg.getBool("c", false));
    EXPECT_FALSE(cfg.getBool("d", true));
}

TEST(Config, OverwriteReplacesValue)
{
    Config cfg;
    cfg.set("k", "1");
    cfg.set("k", "2");
    EXPECT_EQ(cfg.getInt("k", 0), 2);
    EXPECT_EQ(cfg.entries().size(), 1u);
}

TEST(ConfigDeath, MalformedOptionIsFatal)
{
    EXPECT_EXIT(Config::fromArgs({"novalue"}, {{"novalue", "", {}}}),
                ::testing::ExitedWithCode(1), "malformed option");
}

// The documented knob registry: canonicalization, aliases, usage.

std::vector<Knob>
sampleKnobs()
{
    return {
        {"warm_start", "baseline warm-up invocations", {}},
        {"export", "write metrics", {"out"}},
        {"threads", "worker threads", {}},
    };
}

TEST(Knobs, CanonicalNamesParseSilently)
{
    const Config cfg = Config::fromArgs(
        {"warm_start=4", "export=out.json"}, sampleKnobs());
    EXPECT_EQ(cfg.getInt("warm_start", 0), 4);
    EXPECT_EQ(cfg.getString("export", ""), "out.json");
}

TEST(Knobs, HyphenSpellingCanonicalizesToUnderscore)
{
    const Config cfg =
        Config::fromArgs({"warm-start=2"}, sampleKnobs());
    EXPECT_EQ(cfg.getInt("warm_start", 0), 2);
    EXPECT_FALSE(cfg.contains("warm-start"));
}

TEST(Knobs, AliasStoresUnderCanonicalName)
{
    const Config cfg = Config::fromArgs({"out=m.json"}, sampleKnobs());
    EXPECT_EQ(cfg.getString("export", ""), "m.json");
    EXPECT_FALSE(cfg.contains("out"));
}

TEST(KnobsDeath, UnknownKnobSuggestsCanonicalNames)
{
    EXPECT_EXIT(Config::fromArgs({"thread=2"}, sampleKnobs()),
                ::testing::ExitedWithCode(1),
                "unknown option 'thread'.*did you mean 'threads'");
}

TEST(Knobs, UsageListsEveryKnobAndAliases)
{
    const std::string usage = Config::knobUsage(sampleKnobs());
    EXPECT_NE(usage.find("warm_start"), std::string::npos);
    EXPECT_NE(usage.find("worker threads"), std::string::npos);
    EXPECT_NE(usage.find("[aliases: out]"), std::string::npos);
}

TEST(ConfigDeath, NonIntegerValueIsFatal)
{
    Config cfg;
    cfg.set("k", "abc");
    EXPECT_EXIT(cfg.getInt("k", 0), ::testing::ExitedWithCode(1),
                "non-integer");
}

TEST(ConfigDeath, TrailingGarbageAfterIntegerIsFatal)
{
    Config cfg;
    cfg.set("k", "4x");
    EXPECT_EXIT(cfg.getInt("k", 0), ::testing::ExitedWithCode(1),
                "option 'k' has non-integer value '4x'");
    EXPECT_EXIT(Config::parseInt("threads", "two"),
                ::testing::ExitedWithCode(1),
                "option 'threads' has non-integer value 'two'");
    EXPECT_EQ(Config::parseInt("threads", "-3"), -3);
}

TEST(Config, GetListSplitsOnCommasAndDropsEmptyEntries)
{
    Config cfg;
    cfg.set("k", ",a,,b,");
    cfg.set("empty", "");
    EXPECT_EQ(cfg.getList("k", "x"),
              (std::vector<std::string>{"a", "b"}));
    EXPECT_TRUE(cfg.getList("empty", "x").empty());
    EXPECT_EQ(cfg.getList("absent", "lbm,kmn"),
              (std::vector<std::string>{"lbm", "kmn"}));
    EXPECT_TRUE(cfg.getList("absent", "").empty());
}

// ------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformIsInUnitInterval)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, BelowRespectsBound)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BetweenIsInclusive)
{
    Rng r(11);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.between(-2, 3);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 6u); // all values hit
}

TEST(Rng, ChanceExtremes)
{
    Rng r(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceRoughlyMatchesProbability)
{
    Rng r(17);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

// ----------------------------------------------------------------- Stats

TEST(Stats, CounterAccumulates)
{
    StatRegistry reg;
    reg.counter("a.b") += 5;
    ++reg.counter("a.b");
    EXPECT_EQ(reg.counterValue("a.b"), 6u);
    EXPECT_EQ(reg.counterValue("missing"), 0u);
}

// ------------------------------------------------------------------- log

TEST(Log, VerboseToggle)
{
    setVerbose(true);
    EXPECT_TRUE(verbose());
    setVerbose(false);
    EXPECT_FALSE(verbose());
}

TEST(LogDeath, PanicAborts)
{
    EXPECT_DEATH(panic("boom"), "boom");
}

TEST(LogDeath, AssertMacroFires)
{
    EXPECT_DEATH(EQ_ASSERT(1 == 2, "math broke"), "math broke");
}

} // namespace
} // namespace equalizer
