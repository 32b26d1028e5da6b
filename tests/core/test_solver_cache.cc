/**
 * @file
 * Tests for the solver memo cache and the batched curve kernels:
 * cold-vs-warm bitwise identity, curve-vs-per-point bitwise identity,
 * race-free concurrent insertion (the suite name starts with
 * "Parallel" so the tsan preset picks it up), the disable gate, and
 * the canonical key builder every memo is addressed by.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "core/bus_model.hh"
#include "core/cost_model.hh"
#include "core/network_model.hh"
#include "core/per_instruction.hh"
#include "core/scheme_evaluator.hh"
#include "core/solver_cache.hh"
#include "core/workload.hh"

namespace swcc
{
namespace
{

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

void
expectIdentical(const BusSolution &a, const BusSolution &b)
{
    EXPECT_EQ(a.processors, b.processors);
    EXPECT_TRUE(sameBits(a.cpu, b.cpu));
    EXPECT_TRUE(sameBits(a.bus, b.bus));
    EXPECT_TRUE(sameBits(a.waiting, b.waiting));
    EXPECT_TRUE(sameBits(a.busUtilization, b.busUtilization));
    EXPECT_TRUE(sameBits(a.busQueueLength, b.busQueueLength));
    EXPECT_TRUE(
        sameBits(a.processorUtilization, b.processorUtilization));
    EXPECT_TRUE(sameBits(a.processingPower, b.processingPower));
}

void
expectIdentical(const NetworkSolution &a, const NetworkSolution &b)
{
    EXPECT_EQ(a.stages, b.stages);
    EXPECT_EQ(a.processors, b.processors);
    EXPECT_TRUE(sameBits(a.cpu, b.cpu));
    EXPECT_TRUE(sameBits(a.network, b.network));
    EXPECT_TRUE(sameBits(a.transactionRate, b.transactionRate));
    EXPECT_TRUE(sameBits(a.unitRequestRate, b.unitRequestRate));
    EXPECT_TRUE(sameBits(a.computeFraction, b.computeFraction));
    EXPECT_TRUE(sameBits(a.inputLoad, b.inputLoad));
    EXPECT_TRUE(sameBits(a.acceptance, b.acceptance));
    EXPECT_TRUE(
        sameBits(a.cyclesPerInstruction, b.cyclesPerInstruction));
    EXPECT_TRUE(sameBits(a.waiting, b.waiting));
    EXPECT_TRUE(
        sameBits(a.processorUtilization, b.processorUtilization));
    EXPECT_TRUE(sameBits(a.processingPower, b.processingPower));
}

class ParallelSolverCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setSolverCacheEnabled(true);
        clearSolverCache();
    }

    void
    TearDown() override
    {
        clearSolverCache();
        setSolverCacheEnabled(true);
    }
};

TEST_F(ParallelSolverCacheTest, ColdAndWarmResultsAreBitIdentical)
{
    const WorkloadParams params = middleParams();
    for (Scheme scheme : kAllSchemes) {
        for (unsigned n : {1u, 7u, 32u}) {
            const BusSolution cold = evaluateBus(scheme, params, n);
            const BusSolution warm = evaluateBus(scheme, params, n);
            expectIdentical(cold, warm);
        }
    }
    const NetworkSolution cold =
        evaluateNetwork(Scheme::SoftwareFlush, params, 6);
    const NetworkSolution warm =
        evaluateNetwork(Scheme::SoftwareFlush, params, 6);
    expectIdentical(cold, warm);
}

TEST_F(ParallelSolverCacheTest, WarmLookupsCountAsHits)
{
    const WorkloadParams params = middleParams();
    evaluateBus(Scheme::Dragon, params, 12);
    const SolverCacheStats before = solverCacheStats();
    evaluateBus(Scheme::Dragon, params, 12);
    const SolverCacheStats after = solverCacheStats();
    EXPECT_EQ(after.hits, before.hits + 1);
    EXPECT_EQ(after.misses, before.misses);
}

TEST_F(ParallelSolverCacheTest, CachedValuesMatchUncachedSolves)
{
    const WorkloadParams params = middleParams();
    // Warm the cache, then compare each warm value against a solve
    // with the cache disabled entirely.
    for (Scheme scheme : kAllSchemes) {
        evaluateBus(scheme, params, 16);
    }
    for (Scheme scheme : kAllSchemes) {
        const BusSolution warm = evaluateBus(scheme, params, 16);
        setSolverCacheEnabled(false);
        const BusSolution direct = evaluateBus(scheme, params, 16);
        setSolverCacheEnabled(true);
        expectIdentical(warm, direct);
    }
}

TEST_F(ParallelSolverCacheTest, BusCurveMatchesPerPointSolvesBitwise)
{
    const WorkloadParams params = middleParams();
    const BusCostModel costs;
    const PerInstructionCost cost = perInstructionCost(
        operationFrequencies(Scheme::SoftwareFlush, params), costs);
    const auto curve = solveBusCurve(cost, 48);
    ASSERT_EQ(curve.size(), 48u);
    for (unsigned n = 1; n <= 48; ++n) {
        expectIdentical(curve[n - 1], solveBus(cost, n));
    }
}

TEST_F(ParallelSolverCacheTest, EvaluatedBusCurveSeedsThePointMemo)
{
    const WorkloadParams params = middleParams();
    const auto curve = evaluateBusCurve(Scheme::Base, params, 24);
    const SolverCacheStats before = solverCacheStats();
    const BusSolution point = evaluateBus(Scheme::Base, params, 17);
    const SolverCacheStats after = solverCacheStats();
    EXPECT_EQ(after.hits, before.hits + 1);
    expectIdentical(curve[16], point);
}

TEST_F(ParallelSolverCacheTest,
       NetworkCurveMatchesPerPointSolvesBitwise)
{
    const WorkloadParams params = middleParams();
    // Compare computed values, not cached copies: disable the memo so
    // both sides really solve.
    setSolverCacheEnabled(false);
    const auto curve =
        evaluateNetworkCurve(Scheme::SoftwareFlush, params, 10);
    ASSERT_EQ(curve.size(), 10u);
    for (unsigned stages = 1; stages <= 10; ++stages) {
        expectIdentical(
            curve[stages - 1],
            evaluateNetwork(Scheme::SoftwareFlush, params, stages));
    }
    setSolverCacheEnabled(true);
}

TEST_F(ParallelSolverCacheTest,
       BatchedFixedPointMatchesScalarBitwise)
{
    // Each curve point's U is the scalar fixed point of its own
    // transaction rate, size and stage count.
    setSolverCacheEnabled(false);
    const auto curve =
        evaluateNetworkCurve(Scheme::Base, paramsAtLevel(Level::High), 12);
    setSolverCacheEnabled(true);
    for (const NetworkSolution &point : curve) {
        EXPECT_TRUE(sameBits(point.computeFraction,
                             solveComputeFraction(point.transactionRate,
                                                  point.network,
                                                  point.stages)))
            << "stages " << point.stages;
    }
}

TEST_F(ParallelSolverCacheTest, DisabledCacheComputesEveryTime)
{
    const WorkloadParams params = middleParams();
    setSolverCacheEnabled(false);
    const SolverCacheStats before = solverCacheStats();
    const BusSolution a = evaluateBus(Scheme::Base, params, 9);
    const BusSolution b = evaluateBus(Scheme::Base, params, 9);
    const SolverCacheStats after = solverCacheStats();
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);
    expectIdentical(a, b);
    setSolverCacheEnabled(true);
}

TEST_F(ParallelSolverCacheTest, ShardOverflowCountsEvictions)
{
    // Drive one private memo shard past its bound: the overflow clear
    // must add the dropped entry count to the process-wide eviction
    // total. clear() calls, by contrast, are not evictions.
    SolverMemo<int> memo;
    const SolverCacheStats before = solverCacheStats();
    // Keys land on shards by hi % 16; pushing 16 * (4096 + 1)
    // distinct keys guarantees at least one shard overflows.
    for (std::uint64_t i = 0; i < 16 * 4097; ++i) {
        memo.insert(SolverKeyBuilder("evict-test").add(i).key(),
                    static_cast<int>(i));
    }
    const SolverCacheStats after = solverCacheStats();
    EXPECT_GT(after.evictions, before.evictions);
    EXPECT_GE(after.evictions - before.evictions, 4096u);

    memo.clear();
    EXPECT_EQ(solverCacheStats().evictions, after.evictions);
}

TEST_F(ParallelSolverCacheTest, ConcurrentMixedLookupsAreRaceFree)
{
    // Raw std::threads hammer overlapping operating points through
    // the memo: every thread inserts and hits the same shards. Run
    // under tsan, this is the data-race gate for the cache; in any
    // build it checks cross-thread results equal the serial ones.
    const WorkloadParams params = middleParams();
    std::vector<BusSolution> serial;
    setSolverCacheEnabled(false);
    for (unsigned n = 1; n <= 16; ++n) {
        serial.push_back(evaluateBus(Scheme::Dragon, params, n));
    }
    setSolverCacheEnabled(true);

    constexpr unsigned kThreads = 4;
    std::vector<std::vector<BusSolution>> got(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < 3; ++round) {
                got[t].clear();
                for (unsigned n = 1; n <= 16; ++n) {
                    got[t].push_back(
                        evaluateBus(Scheme::Dragon, params, n));
                }
            }
        });
    }
    for (std::thread &thread : threads) {
        thread.join();
    }
    for (unsigned t = 0; t < kThreads; ++t) {
        ASSERT_EQ(got[t].size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            expectIdentical(got[t][i], serial[i]);
        }
    }
}

// --- Key builder: the canonical identity of a solve. ---

TEST(SolverKeyBuilderTest, SameFieldsSameKey)
{
    const SolverCacheKey a = SolverKeyBuilder("bus")
        .add("shd").add(0.25).add(std::uint64_t{16}).key();
    const SolverCacheKey b = SolverKeyBuilder("bus")
        .add("shd").add(0.25).add(std::uint64_t{16}).key();
    EXPECT_EQ(a, b);
    EXPECT_EQ(SolverCacheKeyHash{}(a), SolverCacheKeyHash{}(b));
}

TEST(SolverKeyBuilderTest, FieldOrderAndValuesMatter)
{
    const SolverCacheKey base =
        SolverKeyBuilder("bus").add("shd").add(0.25).key();
    EXPECT_NE(base, SolverKeyBuilder("bus").add(0.25).add("shd").key());
    EXPECT_NE(base, SolverKeyBuilder("bus").add("shd").add(0.26).key());
    EXPECT_NE(base,
              SolverKeyBuilder("network").add("shd").add(0.25).key());
    // Field framing: ("ab", "c") must not collide with ("a", "bc").
    EXPECT_NE(SolverKeyBuilder("d").add("ab").add("c").key(),
              SolverKeyBuilder("d").add("a").add("bc").key());
}

TEST(SolverKeyBuilderTest, FieldTypesAreTagged)
{
    // The same bytes under a different field type are a different
    // key: a processor count of 0 is not a parameter value of 0.0,
    // and neither is an empty string.
    const SolverCacheKey as_uint =
        SolverKeyBuilder("k").add(std::uint64_t{0}).key();
    const SolverCacheKey as_double = SolverKeyBuilder("k").add(0.0).key();
    const SolverCacheKey as_string = SolverKeyBuilder("k").add("").key();
    EXPECT_NE(as_uint, as_double);
    EXPECT_NE(as_uint, as_string);
    EXPECT_NE(as_double, as_string);
    // The two halves are independent hash states, not copies.
    EXPECT_NE(as_uint.lo, as_uint.hi);
}

TEST(SolverKeyBuilderTest, DoublesAreCanonicalised)
{
    // -0.0 and +0.0 compare equal, so they must key equal; any NaN
    // collapses to one canonical bit pattern.
    EXPECT_EQ(SolverKeyBuilder("k").add(-0.0).key(),
              SolverKeyBuilder("k").add(0.0).key());
    const double nan1 = std::numeric_limits<double>::quiet_NaN();
    const double nan2 = std::nan("0x5");
    EXPECT_EQ(SolverKeyBuilder("k").add(nan1).key(),
              SolverKeyBuilder("k").add(nan2).key());
    EXPECT_NE(SolverKeyBuilder("k").add(nan1).key(),
              SolverKeyBuilder("k").add(0.0).key());
}

TEST(SolverKeyBuilderTest, EveryWorkloadParamChangesTheKey)
{
    const WorkloadParams base = middleParams();
    const SolverCacheKey base_key = SolverKeyBuilder("k").add(base).key();
    EXPECT_EQ(base_key, SolverKeyBuilder("k").add(middleParams()).key());
    for (ParamId id : kAllParams) {
        WorkloadParams moved = base;
        setParam(moved, id, paramLevelValue(id, Level::High));
        ASSERT_NE(getParam(moved, id), getParam(base, id))
            << paramName(id);
        EXPECT_NE(SolverKeyBuilder("k").add(moved).key(), base_key)
            << paramName(id);
    }
}

TEST(SolverKeyBuilderTest, CostTablesKeyByTheirValues)
{
    // Two separately built tables with equal costs key identically;
    // re-costing one operation, or a different medium, changes the key.
    const BusCostModel a;
    const BusCostModel b;
    EXPECT_EQ(SolverKeyBuilder("k").add(a).key(),
              SolverKeyBuilder("k").add(b).key());

    BusCostModel recosted;
    OpCost cost = recosted.cost(Operation::CleanMissMem);
    cost.cpu += 1.0;
    recosted.setCost(Operation::CleanMissMem, cost);
    EXPECT_NE(SolverKeyBuilder("k").add(recosted).key(),
              SolverKeyBuilder("k").add(a).key());

    EXPECT_NE(SolverKeyBuilder("k").add(NetworkCostModel(4)).key(),
              SolverKeyBuilder("k").add(a).key());
    EXPECT_NE(SolverKeyBuilder("k").add(NetworkCostModel(4)).key(),
              SolverKeyBuilder("k").add(NetworkCostModel(5)).key());
}

} // namespace
} // namespace swcc
