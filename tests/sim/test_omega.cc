/**
 * @file
 * Unit tests for the omega-network simulator.
 */

#include <gtest/gtest.h>

#include "sim/net/omega_network.hh"

namespace swcc
{
namespace
{

OmegaConfig
config(unsigned stages, double think, double msg,
       NetMode mode = NetMode::UnitRequest, std::uint64_t seed = 1)
{
    OmegaConfig c;
    c.stages = stages;
    c.meanThink = think;
    c.messageCycles = msg;
    c.mode = mode;
    c.seed = seed;
    return c;
}

TEST(OmegaConfigTest, Validation)
{
    EXPECT_NO_THROW(config(4, 10.0, 8.0).validate());
    EXPECT_THROW(config(0, 10.0, 8.0).validate(),
                 std::invalid_argument);
    EXPECT_THROW(config(17, 10.0, 8.0).validate(),
                 std::invalid_argument);
    EXPECT_THROW(config(4, -1.0, 8.0).validate(),
                 std::invalid_argument);
    EXPECT_THROW(config(4, 10.0, 0.5).validate(),
                 std::invalid_argument);
}

TEST(OmegaNetworkTest, PortCountIsTwoToTheStages)
{
    EXPECT_EQ(OmegaNetwork(config(3, 10.0, 4.0)).ports(), 8u);
    EXPECT_EQ(OmegaNetwork(config(8, 10.0, 4.0)).ports(), 256u);
}

TEST(OmegaNetworkTest, RunsAndProducesConsistentStats)
{
    OmegaNetwork network(config(4, 30.0, 10.0));
    const OmegaStats stats = network.run(20'000);

    EXPECT_EQ(stats.cycles, 20'000u);
    EXPECT_GT(stats.transactions, 0u);
    EXPECT_GT(stats.attempts, stats.accepted);
    EXPECT_GT(stats.acceptance, 0.0);
    EXPECT_LE(stats.acceptance, 1.0);
    EXPECT_GT(stats.computeFraction, 0.0);
    EXPECT_LT(stats.computeFraction, 1.0);
    ASSERT_EQ(stats.stageLoads.size(), 5u);
}

TEST(OmegaNetworkTest, StageLoadsDecreaseMonotonically)
{
    OmegaNetwork network(config(6, 10.0, 16.0));
    const OmegaStats stats = network.run(30'000);
    for (std::size_t i = 1; i < stats.stageLoads.size(); ++i) {
        EXPECT_LE(stats.stageLoads[i], stats.stageLoads[i - 1] + 1e-9)
            << "stage " << i;
    }
}

TEST(OmegaNetworkTest, SplitRunsMatchOneRun)
{
    // Counters accumulate across run() calls, so the statistics are
    // normalised by every cycle simulated, not only the last call's.
    for (NetMode mode : {NetMode::UnitRequest, NetMode::Circuit}) {
        OmegaNetwork split(config(4, 10.0, 8.0, mode, 3));
        (void)split.run(1'500);
        const OmegaStats twice = split.run(2'500);
        OmegaNetwork whole(config(4, 10.0, 8.0, mode, 3));
        const OmegaStats once = whole.run(4'000);

        EXPECT_EQ(twice.cycles, 4'000u);
        EXPECT_EQ(twice.cycles, once.cycles);
        EXPECT_EQ(twice.attempts, once.attempts);
        EXPECT_EQ(twice.accepted, once.accepted);
        EXPECT_EQ(twice.transactions, once.transactions);
        EXPECT_EQ(twice.computeFraction, once.computeFraction);
        EXPECT_EQ(twice.acceptance, once.acceptance);
        EXPECT_EQ(twice.throughputPerPort, once.throughputPerPort);
        EXPECT_EQ(twice.stageLoads, once.stageLoads);
    }
}

TEST(OmegaNetworkTest, DeterministicPerSeed)
{
    OmegaNetwork a(config(4, 20.0, 8.0, NetMode::UnitRequest, 5));
    OmegaNetwork b(config(4, 20.0, 8.0, NetMode::UnitRequest, 5));
    const OmegaStats sa = a.run(5'000);
    const OmegaStats sb = b.run(5'000);
    EXPECT_EQ(sa.accepted, sb.accepted);
    EXPECT_EQ(sa.transactions, sb.transactions);
}

TEST(OmegaNetworkTest, LighterLoadMeansMoreComputing)
{
    const OmegaStats heavy =
        OmegaNetwork(config(4, 5.0, 12.0)).run(20'000);
    const OmegaStats light =
        OmegaNetwork(config(4, 200.0, 12.0)).run(20'000);
    EXPECT_GT(light.computeFraction, heavy.computeFraction);
    EXPECT_GT(light.acceptance, heavy.acceptance);
}

TEST(OmegaNetworkTest, CircuitModeHoldsPathsLonger)
{
    // With the same offered load, circuit switching admits fewer
    // setups per cycle than unit requests (each setup claims the path
    // for the whole message), so stage-0 acceptance per attempt drops.
    const OmegaStats unit =
        OmegaNetwork(config(4, 20.0, 12.0, NetMode::UnitRequest))
            .run(30'000);
    const OmegaStats circuit =
        OmegaNetwork(config(4, 20.0, 12.0, NetMode::Circuit))
            .run(30'000);
    EXPECT_LT(circuit.acceptance, unit.acceptance);
    EXPECT_GT(circuit.transactions, 0u);
}

TEST(OmegaNetworkTest, SingleStageNetworkWorks)
{
    OmegaNetwork network(config(1, 10.0, 3.0));
    const OmegaStats stats = network.run(10'000);
    EXPECT_GT(stats.transactions, 0u);
    ASSERT_EQ(stats.stageLoads.size(), 2u);
}

TEST(OmegaKaryTest, WideSwitchNetworkRuns)
{
    OmegaConfig c = config(3, 20.0, 10.0);
    c.switchDim = 4; // 64 ports in 3 stages.
    OmegaNetwork network(c);
    EXPECT_EQ(network.ports(), 64u);
    const OmegaStats stats = network.run(20'000);
    EXPECT_GT(stats.transactions, 1'000u);
    ASSERT_EQ(stats.stageLoads.size(), 4u);
    for (std::size_t i = 1; i < stats.stageLoads.size(); ++i) {
        EXPECT_LE(stats.stageLoads[i], stats.stageLoads[i - 1] + 1e-9);
    }
}

TEST(OmegaKaryTest, FewerWideStagesBeatManyNarrowOnes)
{
    // 64 ports as 6 stages of 2x2 vs 3 stages of 4x4, same message
    // time: the wide build computes more.
    OmegaConfig narrow = config(6, 15.0, 12.0, NetMode::Circuit, 3);
    OmegaConfig wide = config(3, 15.0, 12.0, NetMode::Circuit, 3);
    wide.switchDim = 4;
    const OmegaStats narrow_stats = OmegaNetwork(narrow).run(40'000);
    const OmegaStats wide_stats = OmegaNetwork(wide).run(40'000);
    EXPECT_GT(wide_stats.computeFraction, narrow_stats.computeFraction);
}

TEST(OmegaKaryTest, RejectsBadDimensionsAndOversizedNetworks)
{
    OmegaConfig c = config(4, 10.0, 8.0);
    c.switchDim = 1;
    EXPECT_THROW(c.validate(), std::invalid_argument);
    c.switchDim = 16;
    c.stages = 8; // 16^8 ports: far too large.
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(NetSourceTest, LifecycleAndCounters)
{
    Rng rng(1);
    NetSource source(5.0, 3.0, 16);
    // First tick leaves thinking for requesting.
    source.tick(rng);
    EXPECT_EQ(source.state(), NetSource::State::Requesting);
    EXPECT_LT(source.dest(), 16u);

    source.unitAccepted(rng);
    source.unitAccepted(rng);
    source.unitAccepted(rng);
    EXPECT_EQ(source.state(), NetSource::State::Thinking);
    EXPECT_EQ(source.transactions(), 1u);
}

TEST(NetSourceTest, HoldingLifecycle)
{
    Rng rng(2);
    NetSource source(5.0, 4.0, 16);
    source.tick(rng);
    ASSERT_EQ(source.state(), NetSource::State::Requesting);
    source.startHolding(2.0);
    EXPECT_EQ(source.state(), NetSource::State::Holding);
    source.tick(rng);
    EXPECT_EQ(source.state(), NetSource::State::Holding);
    source.tick(rng);
    EXPECT_EQ(source.state(), NetSource::State::Thinking);
    EXPECT_EQ(source.transactions(), 1u);
}

TEST(NetSourceTest, StateMachineGuards)
{
    Rng rng(3);
    NetSource source(5.0, 2.0, 8);
    EXPECT_THROW(source.unitAccepted(rng), std::logic_error);
    EXPECT_THROW(source.startHolding(4.0), std::logic_error);
    EXPECT_THROW(NetSource(-1.0, 2.0, 8), std::invalid_argument);
    EXPECT_THROW(NetSource(5.0, 0.5, 8), std::invalid_argument);
    EXPECT_THROW(NetSource(5.0, 2.0, 0), std::invalid_argument);
}

} // namespace
} // namespace swcc
