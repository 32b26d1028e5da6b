/**
 * @file
 * Integration tests: the analytical model agrees with the simulator
 * (the paper's Section 3 validation, as tests).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/parallel.hh"
#include "sim/mp/validation.hh"

namespace swcc
{
namespace
{

ValidationConfig
baseConfig(Scheme scheme,
           AppProfile profile = AppProfile::PopsLike)
{
    ValidationConfig config;
    config.profile = profile;
    config.scheme = scheme;
    config.maxCpus = 4;
    config.instructionsPerCpu = 60'000;
    config.seed = 101;
    return config;
}

class SchemeValidationTest
    : public ::testing::TestWithParam<std::tuple<Scheme, AppProfile>>
{
};

TEST_P(SchemeValidationTest, ModelTracksSimulationWithinTolerance)
{
    const auto [scheme, profile] = GetParam();
    const auto points = validate(baseConfig(scheme, profile));
    ASSERT_EQ(points.size(), 4u);
    for (const ValidationPoint &point : points) {
        EXPECT_LT(std::abs(point.errorPercent()), 16.0)
            << schemeName(scheme) << '/' << profileName(profile)
            << " cpus=" << point.cpus << " sim=" << point.simPower
            << " model=" << point.modelPower;
    }
}

TEST_P(SchemeValidationTest, PowerGrowsWithProcessors)
{
    const auto [scheme, profile] = GetParam();
    const auto points = validate(baseConfig(scheme, profile));
    for (std::size_t i = 1; i < points.size(); ++i) {
        EXPECT_GT(points[i].simPower, points[i - 1].simPower);
        EXPECT_GT(points[i].modelPower, points[i - 1].modelPower);
    }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesByProfile, SchemeValidationTest,
    ::testing::Combine(
        ::testing::Values(Scheme::Base, Scheme::Dragon,
                          Scheme::SoftwareFlush, Scheme::NoCache),
        ::testing::ValuesIn(kAllProfiles)));

TEST(ValidationBiasTest, ModelOverestimatesContentionOnAverage)
{
    // Paper Section 3: the model "consistently overestimates bus
    // contention" because it assumes exponential rather than fixed bus
    // service times. Overestimated contention means underestimated
    // power, so the mean signed error is negative at multi-processor
    // points.
    double total_error = 0.0;
    int points_counted = 0;
    for (Scheme scheme : {Scheme::Base, Scheme::Dragon}) {
        for (const ValidationPoint &point :
             validate(baseConfig(scheme))) {
            if (point.cpus >= 2) {
                total_error += point.errorPercent();
                ++points_counted;
            }
        }
    }
    ASSERT_GT(points_counted, 0);
    EXPECT_LT(total_error / points_counted, 0.0);
}

TEST(ValidationBiasTest, SingleProcessorNeedsNoContentionModel)
{
    // With one processor there is no contention to misestimate, so the
    // model should be near-exact (measured inputs, measured service).
    for (Scheme scheme : {Scheme::Base, Scheme::Dragon}) {
        const auto points = validate(baseConfig(scheme));
        EXPECT_LT(std::abs(points.front().errorPercent()), 2.0)
            << schemeName(scheme);
    }
}

TEST(ValidationRelativeTest, ModelPreservesTheBaseDragonGap)
{
    // Paper: "the model exactly captures the relative difference
    // between the performance of Base and Dragon schemes".
    const auto base = validate(baseConfig(Scheme::Base));
    const auto dragon = validate(baseConfig(Scheme::Dragon));
    for (std::size_t i = 1; i < base.size(); ++i) {
        const double sim_gap = base[i].simPower / dragon[i].simPower;
        const double model_gap =
            base[i].modelPower / dragon[i].modelPower;
        EXPECT_NEAR(sim_gap, model_gap, 0.05 * sim_gap);
    }
}

TEST(ValidationPointTest, ErrorPercentIsSigned)
{
    ValidationPoint point;
    point.simPower = 2.0;
    point.modelPower = 1.8;
    EXPECT_NEAR(point.errorPercent(), -10.0, 1e-12);
    point.modelPower = 2.2;
    EXPECT_NEAR(point.errorPercent(), 10.0, 1e-12);
    point.simPower = 0.0;
    EXPECT_DOUBLE_EQ(point.errorPercent(), 0.0);
}

TEST(ValidationErrorTest, AFailingCellPropagatesItsError)
{
    // A 1000-byte cache is not a power of two: every cell's cache
    // construction throws, and validate() must rethrow instead of
    // returning NaN points.
    ValidationConfig config = baseConfig(Scheme::Dragon);
    config.cacheBytes = 1000;
    config.maxCpus = 2;
    config.instructionsPerCpu = 2'000;
    for (unsigned threads : {1u, 4u}) {
        setThreadCount(threads);
        EXPECT_THROW(validate(config), std::invalid_argument)
            << threads << " threads";
    }
    setThreadCount(0);
}

TEST(ValidationCellTest, EveryCellEqualsItsStandaloneValidatePoint)
{
    // Cells are seeded by their processor count, so validate()'s slot
    // for n CPUs is exactly validatePoint(config, n) run on its own,
    // whatever else runs beside it.
    ValidationConfig config = baseConfig(Scheme::SoftwareFlush);
    config.maxCpus = 3;
    config.instructionsPerCpu = 20'000;
    setThreadCount(4);
    const std::vector<ValidationPoint> points = validate(config);
    setThreadCount(0);
    ASSERT_EQ(points.size(), 3u);
    for (CpuId cpus = 1; cpus <= 3; ++cpus) {
        const ValidationPoint alone = validatePoint(config, cpus);
        const ValidationPoint &cell = points[cpus - 1];
        EXPECT_EQ(cell.cpus, cpus);
        EXPECT_EQ(cell.scheme, Scheme::SoftwareFlush);
        EXPECT_EQ(cell.cacheBytes, config.cacheBytes);
        EXPECT_EQ(cell.simPower, alone.simPower) << cpus;
        EXPECT_EQ(cell.modelPower, alone.modelPower) << cpus;
        EXPECT_EQ(cell.sim.serialize(), alone.sim.serialize()) << cpus;
    }
}

} // namespace
} // namespace swcc
