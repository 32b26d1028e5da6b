/**
 * @file
 * The write-update vs write-invalidate trade-off behind X5: Dragon
 * against MESI, in the simulator and in the analytical model.
 */

#include <gtest/gtest.h>

#include "core/frequency_model.hh"
#include "core/scheme_evaluator.hh"
#include "sim/mp/system.hh"

namespace swcc
{
namespace
{

constexpr Addr kBlockA = 0x8000'0000;

CacheConfig
config()
{
    CacheConfig c;
    c.sizeBytes = 1024;
    c.blockBytes = 16;
    c.associativity = 2;
    return c;
}

TEST(InvalidateSystemTest, FewerBusOpsThanDragonOnWriteRuns)
{
    // A workload of long write runs: invalidate pays once per run,
    // Dragon once per write.
    TraceBuffer trace;
    trace.append(0, RefType::Load, kBlockA);
    trace.append(1, RefType::Load, kBlockA);
    for (int i = 0; i < 10; ++i) {
        trace.append(0, RefType::Store, kBlockA + 4);
    }

    MultiprocessorSystem mesi_system(Scheme::Mesi, config(), 2);
    const SimStats mesi = mesi_system.run(trace);

    MultiprocessorSystem dragon_system(Scheme::Dragon, config(), 2);
    const SimStats dragon = dragon_system.run(trace);

    EXPECT_EQ(mesi.opCount(Operation::WriteBroadcast), 1u);
    EXPECT_EQ(dragon.opCount(Operation::WriteBroadcast), 10u);
}

TEST(InvalidateModelTest, FrequenciesDecompose)
{
    // MESI's table: one invalidation per write run that finds remote
    // copies, nshd copies destroyed by each, and a fraction opres of
    // them re-referenced as cache-supplied coherence misses.
    const WorkloadParams p = middleParams();
    const FrequencyVector f = operationFrequencies(Scheme::Mesi, p);

    const double inval =
        p.ls * p.shd * p.wr * p.opres * firstWriteFraction(p);
    EXPECT_DOUBLE_EQ(f.of(Operation::WriteBroadcast), inval);
    EXPECT_DOUBLE_EQ(f.of(Operation::CycleSteal), inval * p.nshd);
    const double coherence = inval * p.nshd * p.opres;
    EXPECT_NEAR(f.totalMisses(),
                p.ls * p.msdat + p.mains + coherence, 1e-12);
}

TEST(InvalidateModelTest, TradeoffFollowsRunLength)
{
    // Short write runs (ping-pong): Dragon's cheap updates win. Long
    // runs: one invalidation covers many writes and MESI wins.
    WorkloadParams ping = middleParams();
    ping.apl = 2.0;
    EXPECT_GT(evaluateBus(Scheme::Dragon, ping, 16).processingPower,
              evaluateBus(Scheme::Mesi, ping, 16).processingPower);

    WorkloadParams runs = middleParams();
    runs.apl = 64.0;
    EXPECT_LT(evaluateBus(Scheme::Dragon, runs, 16).processingPower,
              evaluateBus(Scheme::Mesi, runs, 16).processingPower);
}

TEST(InvalidateModelTest, NoSharingMatchesDragonAndBase)
{
    WorkloadParams params = middleParams();
    params.shd = 0.0;
    EXPECT_NEAR(evaluateBus(Scheme::Mesi, params, 8).processingPower,
                evaluateBus(Scheme::Base, params, 8).processingPower,
                1e-9);
}

} // namespace
} // namespace swcc
