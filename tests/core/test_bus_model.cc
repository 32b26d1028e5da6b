/**
 * @file
 * Unit tests for the bus contention model (exact MVA).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/bus_model.hh"

namespace swcc
{
namespace
{

/**
 * Independent closed-form solution of the machine-repairman model
 * (N exponential thinkers of mean Z, one exponential server of mean S)
 * via its stationary distribution: pi_k proportional to
 * N!/(N-k)! * (S/Z)^k, k customers at the server.
 */
double
repairmanWaiting(double think, double service, unsigned customers)
{
    const double rho = service / think;
    std::vector<double> pi(customers + 1);
    double weight = 1.0;
    pi[0] = 1.0;
    for (unsigned k = 1; k <= customers; ++k) {
        weight *= static_cast<double>(customers - k + 1) * rho;
        pi[k] = weight;
    }
    double total = 0.0;
    for (double w : pi) {
        total += w;
    }
    double queue = 0.0;
    for (unsigned k = 0; k <= customers; ++k) {
        queue += k * pi[k] / total;
    }
    const double idle = pi[0] / total;
    const double throughput = (1.0 - idle) / service;
    const double response = queue / throughput; // Little's law.
    return response - service;
}

PerInstructionCost
cost(double cpu, double bus)
{
    PerInstructionCost c;
    c.cpu = cpu;
    c.channel = bus;
    return c;
}

TEST(BusModelTest, SingleProcessorHasNoContention)
{
    const BusSolution sol = solveBus(cost(2.0, 0.5), 1);
    EXPECT_NEAR(sol.waiting, 0.0, 1e-12);
    EXPECT_NEAR(sol.processorUtilization, 0.5, 1e-12);
    EXPECT_NEAR(sol.processingPower, 0.5, 1e-12);
}

TEST(BusModelTest, ZeroBusDemandMeansNoQueueing)
{
    const BusSolution sol = solveBus(cost(1.5, 0.0), 64);
    EXPECT_DOUBLE_EQ(sol.waiting, 0.0);
    EXPECT_DOUBLE_EQ(sol.busUtilization, 0.0);
    EXPECT_NEAR(sol.processingPower, 64.0 / 1.5, 1e-12);
}

/** MVA must agree with the stationary-distribution solution exactly. */
class RepairmanAgreementTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(RepairmanAgreementTest, MvaMatchesClosedForm)
{
    const unsigned n = GetParam();
    for (const auto &[cpu, bus] :
         std::vector<std::pair<double, double>>{
             {1.2, 0.1}, {2.0, 0.7}, {5.0, 3.0}, {1.05, 0.05}}) {
        const BusSolution sol = solveBus(cost(cpu, bus), n);
        const double expected = repairmanWaiting(cpu - bus, bus, n);
        EXPECT_NEAR(sol.waiting, expected, 1e-9)
            << "c=" << cpu << " b=" << bus << " n=" << n;
    }
}

INSTANTIATE_TEST_SUITE_P(Populations, RepairmanAgreementTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u, 16u, 32u));

TEST(BusModelTest, WaitingGrowsWithProcessors)
{
    double prev = -1.0;
    for (unsigned n = 1; n <= 32; ++n) {
        const BusSolution sol = solveBus(cost(2.0, 0.5), n);
        EXPECT_GT(sol.waiting, prev);
        prev = sol.waiting;
    }
}

TEST(BusModelTest, ProcessingPowerIsMonotoneInProcessors)
{
    // Adding a processor never reduces total processing power in a
    // work-conserving queue.
    double prev = 0.0;
    for (unsigned n = 1; n <= 64; ++n) {
        const BusSolution sol = solveBus(cost(1.6, 0.4), n);
        EXPECT_GE(sol.processingPower, prev - 1e-12);
        prev = sol.processingPower;
    }
}

TEST(BusModelTest, PowerRespectsBothAsymptoticBounds)
{
    const PerInstructionCost c = cost(1.6, 0.4);
    for (unsigned n = 1; n <= 64; n *= 2) {
        const BusSolution sol = solveBus(c, n);
        EXPECT_LE(sol.processingPower, n / c.cpu + 1e-12);
        EXPECT_LE(sol.processingPower, busSaturationPower(c) + 1e-12);
    }
}

TEST(BusModelTest, SaturatedBusApproachesBandwidthBound)
{
    const PerInstructionCost c = cost(1.5, 0.5);
    const BusSolution sol = solveBus(c, 128);
    EXPECT_NEAR(sol.processingPower, 1.0 / 0.5, 0.01);
    EXPECT_NEAR(sol.busUtilization, 1.0, 0.01);
}

TEST(BusModelTest, BusUtilizationIsConsistentWithThroughput)
{
    const BusSolution sol = solveBus(cost(2.0, 0.6), 8);
    // Throughput per processor is U instructions/cycle, each holding
    // the bus for b cycles.
    EXPECT_NEAR(sol.busUtilization,
                sol.processingPower * sol.bus, 1e-9);
}

TEST(BusModelTest, SaturationEstimates)
{
    const PerInstructionCost c = cost(2.0, 0.5);
    EXPECT_DOUBLE_EQ(busSaturationPower(c), 2.0);
    EXPECT_DOUBLE_EQ(busSaturationProcessors(c), 4.0);
    EXPECT_TRUE(std::isinf(busSaturationPower(cost(2.0, 0.0))));
}

TEST(GeneralServiceTest, ExponentialScvRecoversExactMva)
{
    const PerInstructionCost c = cost(1.8, 0.45);
    for (unsigned n : {1u, 2u, 4u, 8u, 16u, 32u}) {
        const BusSolution exact = solveBus(c, n);
        const BusSolution approx = solveBusGeneralService(c, n, 1.0);
        EXPECT_NEAR(approx.waiting, exact.waiting, 1e-9) << n;
        EXPECT_NEAR(approx.processingPower, exact.processingPower,
                    1e-9)
            << n;
    }
}

TEST(GeneralServiceTest, DeterministicServiceWaitsLess)
{
    const PerInstructionCost c = cost(1.6, 0.4);
    for (unsigned n : {2u, 4u, 8u, 16u, 32u}) {
        const BusSolution exp = solveBusGeneralService(c, n, 1.0);
        const BusSolution det = solveBusGeneralService(c, n, 0.0);
        EXPECT_LT(det.waiting, exp.waiting) << n;
        EXPECT_GT(det.processingPower, exp.processingPower) << n;
    }
}

TEST(GeneralServiceTest, WaitingIsMonotoneInVariability)
{
    const PerInstructionCost c = cost(1.5, 0.5);
    double prev = -1.0;
    for (double scv : {0.0, 0.25, 0.5, 1.0, 2.0}) {
        const BusSolution sol = solveBusGeneralService(c, 12, scv);
        EXPECT_GT(sol.waiting, prev) << scv;
        prev = sol.waiting;
    }
}

TEST(GeneralServiceTest, SingleProcessorNeverQueues)
{
    const BusSolution sol =
        solveBusGeneralService(cost(2.0, 0.5), 1, 0.0);
    EXPECT_NEAR(sol.waiting, 0.0, 1e-12);
}

TEST(GeneralServiceTest, DeterministicStillSaturatesTheBus)
{
    const PerInstructionCost c = cost(1.5, 0.5);
    const BusSolution sol = solveBusGeneralService(c, 128, 0.0);
    // Approximate MVA may overshoot the asymptote slightly; the power
    // must still land essentially on the bandwidth bound.
    EXPECT_LT(sol.processingPower, 1.02 * busSaturationPower(c));
    EXPECT_GT(sol.processingPower, 0.95 * busSaturationPower(c));
}

TEST(GeneralServiceTest, RejectsNegativeScv)
{
    EXPECT_THROW(solveBusGeneralService(cost(2.0, 0.5), 4, -0.1),
                 std::invalid_argument);
    EXPECT_THROW(solveBusGeneralService(cost(2.0, 0.5), 0, 0.5),
                 std::invalid_argument);
}

TEST(BusModelTest, RejectsBadArguments)
{
    EXPECT_THROW(solveBus(cost(2.0, 0.5), 0), std::invalid_argument);
    EXPECT_THROW(solveBus(cost(0.4, 0.5), 4), std::invalid_argument);
    EXPECT_THROW(solveBus(cost(1.0, -0.1), 4), std::invalid_argument);
}

TEST(BusModelTest, ReportsItsInputs)
{
    const BusSolution sol = solveBus(cost(2.5, 0.75), 6);
    EXPECT_EQ(sol.processors, 6u);
    EXPECT_DOUBLE_EQ(sol.cpu, 2.5);
    EXPECT_DOUBLE_EQ(sol.bus, 0.75);
    EXPECT_DOUBLE_EQ(sol.cyclesPerInstruction(), 2.5 + sol.waiting);
}

TEST(BusModelTest, NonFiniteDemandIsAnErrorNotAGarbageSolution)
{
    // A NaN or infinite demand passes the ordering checks but breaks
    // the MVA recursion; the solver must throw rather than return a
    // NaN processing power.
    const double nan = std::nan("");
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(solveBus(cost(2.0, nan), 4), std::runtime_error);
    EXPECT_THROW(solveBus(cost(inf, inf), 4), std::runtime_error);
}

TEST(BusModelTest, NonFiniteDemandFailsTheWholeCurve)
{
    const double nan = std::nan("");
    EXPECT_THROW(solveBusCurve(cost(2.0, nan), 8), std::runtime_error);
    // The same curve with a finite demand solves.
    EXPECT_EQ(solveBusCurve(cost(2.0, 0.5), 8).size(), 8u);
}

TEST(BusCurveTest, MatchesThePointSolvesAtEveryLength)
{
    const auto same = [](double a, double b) {
        return std::memcmp(&a, &b, sizeof a) == 0;
    };
    for (const PerInstructionCost &c : {cost(4.0, 0.75), cost(2.5, 0.02)}) {
        for (unsigned max : {1u, 63u, 64u, 65u, 1024u}) {
            const std::vector<BusSolution> curve = solveBusCurve(c, max);
            ASSERT_EQ(curve.size(), max);
            for (unsigned n = 1; n <= max; ++n) {
                const BusSolution &got = curve[n - 1];
                const BusSolution want = solveBus(c, n);
                EXPECT_EQ(got.processors, want.processors);
                EXPECT_TRUE(same(got.cpu, want.cpu));
                EXPECT_TRUE(same(got.bus, want.bus));
                EXPECT_TRUE(same(got.waiting, want.waiting)) << n;
                EXPECT_TRUE(same(got.busUtilization, want.busUtilization));
                EXPECT_TRUE(same(got.busQueueLength, want.busQueueLength));
                EXPECT_TRUE(same(got.processorUtilization,
                                 want.processorUtilization));
                EXPECT_TRUE(
                    same(got.processingPower, want.processingPower));
            }
        }
    }
}

TEST(GeneralServiceTest, NonFiniteDemandIsAnError)
{
    const double nan = std::nan("");
    EXPECT_THROW(solveBusGeneralService(cost(2.0, nan), 4, 0.5),
                 std::runtime_error);
}

} // namespace
} // namespace swcc
