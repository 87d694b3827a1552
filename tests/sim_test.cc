/**
 * @file
 * Unit tests for clock domains and VF states.
 */

#include <gtest/gtest.h>

#include "sim/clock_domain.hh"
#include "sim/vf.hh"

namespace equalizer
{
namespace
{

// -------------------------------------------------------------------- VF

TEST(Vf, FrequencyScales)
{
    EXPECT_DOUBLE_EQ(frequencyScale(VfState::Normal), 1.0);
    EXPECT_DOUBLE_EQ(frequencyScale(VfState::High), 1.15);
    EXPECT_DOUBLE_EQ(frequencyScale(VfState::Low), 0.85);
}

TEST(Vf, VoltageTracksFrequencyLinearly)
{
    for (auto s : {VfState::Low, VfState::Normal, VfState::High})
        EXPECT_DOUBLE_EQ(voltageScale(s), frequencyScale(s));
}

TEST(Vf, StepsSaturate)
{
    EXPECT_EQ(stepUp(VfState::Low), VfState::Normal);
    EXPECT_EQ(stepUp(VfState::Normal), VfState::High);
    EXPECT_EQ(stepUp(VfState::High), VfState::High);
    EXPECT_EQ(stepDown(VfState::High), VfState::Normal);
    EXPECT_EQ(stepDown(VfState::Normal), VfState::Low);
    EXPECT_EQ(stepDown(VfState::Low), VfState::Low);
}

TEST(Vf, Names)
{
    EXPECT_STREQ(vfStateName(VfState::Low), "low");
    EXPECT_STREQ(vfStateName(VfState::Normal), "normal");
    EXPECT_STREQ(vfStateName(VfState::High), "high");
}

// ----------------------------------------------------------- ClockDomain

TEST(ClockDomain, PeriodMatchesFrequency)
{
    ClockDomain d("t", 1e9); // 1 GHz -> 1 ns = 1e6 fs
    EXPECT_EQ(d.period(), 1'000'000u);
    EXPECT_DOUBLE_EQ(d.frequencyHz(), 1e9);
}

TEST(ClockDomain, AdvanceCountsCyclesAndTime)
{
    ClockDomain d("t", 1e9);
    EXPECT_EQ(d.cycle(), 0u);
    EXPECT_EQ(d.advance(), 0u); // first edge at t=0
    EXPECT_EQ(d.cycle(), 1u);
    EXPECT_EQ(d.advance(), 1'000'000u);
    EXPECT_EQ(d.cycle(), 2u);
}

TEST(ClockDomain, HighStateShortensPeriod)
{
    ClockDomain d("t", 1e9);
    d.scheduleState(VfState::High, 0);
    d.advance(); // state applied at the first edge
    EXPECT_EQ(d.state(), VfState::High);
    const Tick expected = periodFromHz(1e9 * 1.15);
    EXPECT_EQ(d.period(), expected);
}

TEST(ClockDomain, TransitionWaitsForScheduledTick)
{
    ClockDomain d("t", 1e9);
    d.scheduleState(VfState::Low, 2'500'000); // between edges 2 and 3
    d.advance(); // t=0
    d.advance(); // t=1e6
    d.advance(); // t=2e6, still before 2.5e6
    EXPECT_EQ(d.state(), VfState::Normal);
    EXPECT_TRUE(d.transitionPending());
    d.advance(); // t=3e6 >= 2.5e6: applied
    EXPECT_EQ(d.state(), VfState::Low);
    EXPECT_FALSE(d.transitionPending());
}

TEST(ClockDomain, ResidencyAccruesPerState)
{
    ClockDomain d("t", 1e9);
    d.advance(); // t=0 (no elapsed time yet)
    d.advance(); // accrues 1e6 at Normal
    d.scheduleState(VfState::High, 0);
    d.advance(); // accrues 1e6 at Normal, then switches
    d.advance(); // accrues one High period
    EXPECT_EQ(d.residency(VfState::Normal), 2'000'000u);
    EXPECT_EQ(d.residency(VfState::High), periodFromHz(1.15e9));
    EXPECT_EQ(d.totalTime(),
              d.residency(VfState::Normal) + d.residency(VfState::High));
}

TEST(ClockDomain, LaterRequestReplacesPending)
{
    ClockDomain d("t", 1e9);
    d.scheduleState(VfState::High, 0);
    d.scheduleState(VfState::Low, 0);
    d.advance();
    EXPECT_EQ(d.state(), VfState::Low);
}

TEST(ClockDomain, ResetStatsKeepsState)
{
    ClockDomain d("t", 1e9);
    d.scheduleState(VfState::High, 0);
    d.advance();
    d.advance();
    d.resetStats();
    EXPECT_EQ(d.cycle(), 0u);
    EXPECT_EQ(d.totalTime(), 0u);
    EXPECT_EQ(d.state(), VfState::High);
}

TEST(ClockDomainDeath, RejectsNonPositiveFrequency)
{
    EXPECT_DEATH(ClockDomain("bad", 0.0), "positive frequency");
}

} // namespace
} // namespace equalizer
