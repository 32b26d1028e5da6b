/**
 * @file
 * Unit tests for the sweep utilities.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "core/parallel.hh"
#include "core/scheme_evaluator.hh"
#include "core/sweep.hh"

namespace swcc
{
namespace
{

TEST(LinspaceTest, EndpointsAndSpacing)
{
    const auto values = linspace(0.0, 1.0, 5);
    ASSERT_EQ(values.size(), 5u);
    EXPECT_DOUBLE_EQ(values.front(), 0.0);
    EXPECT_DOUBLE_EQ(values.back(), 1.0);
    EXPECT_DOUBLE_EQ(values[2], 0.5);
}

TEST(LinspaceTest, DegenerateCounts)
{
    EXPECT_TRUE(linspace(0.0, 1.0, 0).empty());
    const auto one = linspace(3.0, 9.0, 1);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_DOUBLE_EQ(one.front(), 3.0);
}

TEST(LogspaceTest, GeometricSpacing)
{
    const auto values = logspace(1.0, 100.0, 3);
    ASSERT_EQ(values.size(), 3u);
    EXPECT_NEAR(values[0], 1.0, 1e-9);
    EXPECT_NEAR(values[1], 10.0, 1e-9);
    EXPECT_NEAR(values[2], 100.0, 1e-9);
}

TEST(LogspaceTest, RejectsNonPositiveBounds)
{
    EXPECT_THROW(logspace(0.0, 1.0, 4), std::invalid_argument);
    EXPECT_THROW(logspace(1.0, -2.0, 4), std::invalid_argument);
}

TEST(SeriesTest, MaxAndFinalY)
{
    Series series;
    series.points = {{1.0, 2.0}, {2.0, 5.0}, {3.0, 4.0}};
    EXPECT_DOUBLE_EQ(series.maxY(), 5.0);
    EXPECT_DOUBLE_EQ(series.finalY(), 4.0);
    EXPECT_DOUBLE_EQ(Series{}.maxY(), 0.0);
    EXPECT_DOUBLE_EQ(Series{}.finalY(), 0.0);
}

TEST(SeriesTest, MaxYOfAllNegativeSeriesIsTheLargestValue)
{
    // Seeding the max with 0.0 used to report 0 for delta/error series
    // whose values are all negative.
    Series series;
    series.points = {{1.0, -3.0}, {2.0, -1.5}, {3.0, -4.0}};
    EXPECT_DOUBLE_EQ(series.maxY(), -1.5);

    Series single;
    single.points = {{1.0, -7.0}};
    EXPECT_DOUBLE_EQ(single.maxY(), -7.0);
}

TEST(BusPowerSeriesTest, LabelsAndXAxis)
{
    const Series series =
        busPowerSeries(Scheme::Dragon, middleParams(), 8);
    EXPECT_EQ(series.label, "Dragon");
    ASSERT_EQ(series.points.size(), 8u);
    EXPECT_DOUBLE_EQ(series.points.front().x, 1.0);
    EXPECT_DOUBLE_EQ(series.points.back().x, 8.0);
    EXPECT_GT(series.points.back().y, series.points.front().y);
}

TEST(IdealPowerSeriesTest, IsTheDiagonal)
{
    const Series ideal = idealPowerSeries(4);
    ASSERT_EQ(ideal.points.size(), 4u);
    for (const SeriesPoint &p : ideal.points) {
        EXPECT_DOUBLE_EQ(p.x, p.y);
    }
}

TEST(AplPowerSeriesTest, PowerGrowsWithApl)
{
    const std::vector<double> apls = {1.0, 2.0, 4.0, 8.0, 32.0, 128.0};
    const Series series = aplPowerSeries(Scheme::SoftwareFlush,
                                         middleParams(), apls, 8);
    ASSERT_EQ(series.points.size(), apls.size());
    for (std::size_t i = 1; i < series.points.size(); ++i) {
        EXPECT_GT(series.points[i].y, series.points[i - 1].y);
    }
}

TEST(NetworkPowerSeriesTest, ScalesThroughStages)
{
    const Series series =
        networkPowerSeries(Scheme::SoftwareFlush, middleParams(), 6);
    ASSERT_EQ(series.points.size(), 6u);
    EXPECT_DOUBLE_EQ(series.points.front().x, 2.0);
    EXPECT_DOUBLE_EQ(series.points.back().x, 64.0);
}

TEST(NetworkUtilizationSeriesTest, FallsWithRequestRate)
{
    const Series series = networkUtilizationSeries(
        8, 4.0, {0.001, 0.005, 0.01, 0.02, 0.04});
    ASSERT_EQ(series.points.size(), 5u);
    for (std::size_t i = 1; i < series.points.size(); ++i) {
        EXPECT_LT(series.points[i].y, series.points[i - 1].y);
    }
}

TEST(NetworkUtilizationSeriesTest, SkipsNonPositiveRates)
{
    const Series series =
        networkUtilizationSeries(4, 4.0, {0.0, 0.01});
    EXPECT_EQ(series.points.size(), 1u);
}

/** Bitwise double equality (EXPECT_EQ would let -0.0 match 0.0). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Forces a lane count for one scope, restoring the default after. */
struct ThreadCountGuard
{
    explicit ThreadCountGuard(unsigned threads) { setThreadCount(threads); }
    ~ThreadCountGuard() { setThreadCount(0); }
};

std::vector<SweepRow>
sweepAtThreads(unsigned threads, const std::vector<double> &values,
               const std::vector<Scheme> &schemes)
{
    ThreadCountGuard guard(threads);
    return sweepPowerGrid(ParamId::Shd, false, values, middleParams(), 16,
                          schemes);
}

TEST(SweepPowerGridTest, RowsMatchEvaluateBusBitwiseAtAnyThreadCount)
{
    const std::vector<Scheme> schemes(kAllSchemes.begin(),
                                      kAllSchemes.end());
    const std::vector<double> values = linspace(0.0, 0.5, 9);
    const std::vector<SweepRow> serial =
        sweepAtThreads(1, values, schemes);
    const std::vector<SweepRow> parallel =
        sweepAtThreads(4, values, schemes);

    ASSERT_EQ(serial.size(), values.size());
    ASSERT_EQ(parallel.size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        WorkloadParams params = middleParams();
        setParam(params, ParamId::Shd, values[i]);
        EXPECT_TRUE(sameBits(serial[i].value, values[i]));
        EXPECT_TRUE(sameBits(parallel[i].value, values[i]));
        ASSERT_EQ(serial[i].power.size(), schemes.size());
        ASSERT_EQ(parallel[i].power.size(), schemes.size());
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            const double expected =
                evaluateBus(schemes[s], params, 16).processingPower;
            EXPECT_TRUE(sameBits(serial[i].power[s], expected))
                << "row " << i << ' ' << schemeName(schemes[s]);
            EXPECT_TRUE(sameBits(parallel[i].power[s], expected))
                << "row " << i << ' ' << schemeName(schemes[s]);
        }
    }
}

TEST(SweepPowerGridTest, AFailingCellPropagatesItsError)
{
    // shd = 1.5 is not a probability: that cell's solve throws, and
    // the sweep must rethrow it rather than emit a NaN row.
    const std::vector<Scheme> schemes = {Scheme::Base, Scheme::Dragon};
    for (unsigned threads : {1u, 4u}) {
        EXPECT_THROW(sweepAtThreads(threads, {0.1, 0.3, 1.5, 0.4},
                                    schemes),
                     std::invalid_argument)
            << threads << " threads";
    }
    // An apl below 1 is rejected the same way on the apl axis.
    EXPECT_THROW(sweepPowerGrid(ParamId::InvApl, true, {2.0, 0.5},
                                middleParams(), 16, schemes),
                 std::invalid_argument);
}

TEST(SweepPowerGridTest, NoValuesGiveNoRows)
{
    EXPECT_TRUE(sweepPowerGrid(ParamId::Shd, false, {}, middleParams(), 16,
                               {Scheme::Base})
                    .empty());
}

TEST(SweepPowerGridTest, AplAxisSetsAplDirectly)
{
    // On the apl axis the swept value is apl itself (not 1/apl), and
    // the Table 2 parameter argument is ignored.
    const std::vector<Scheme> schemes = {Scheme::SoftwareFlush};
    const std::vector<double> values = {1.0, 4.0, 64.0};
    const std::vector<SweepRow> rows = sweepPowerGrid(
        ParamId::Shd, true, values, middleParams(), 16, schemes);
    ASSERT_EQ(rows.size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        WorkloadParams params = middleParams();
        params.apl = values[i];
        EXPECT_TRUE(sameBits(rows[i].value, values[i]));
        ASSERT_EQ(rows[i].power.size(), 1u);
        EXPECT_TRUE(sameBits(
            rows[i].power[0],
            evaluateBus(Scheme::SoftwareFlush, params, 16)
                .processingPower))
            << "apl " << values[i];
    }
    // Software-Flush gains from longer flush intervals.
    EXPECT_LT(rows.front().power[0], rows.back().power[0]);
}

} // namespace
} // namespace swcc
