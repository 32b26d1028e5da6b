/**
 * @file
 * Unit tests for the sensitivity analysis (paper Section 4 / Table 8).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/parallel.hh"
#include "core/sensitivity.hh"

namespace swcc
{
namespace
{

double
changeOf(const std::vector<SensitivityEntry> &table, Scheme scheme,
         ParamId param)
{
    for (const SensitivityEntry &entry : table) {
        if (entry.scheme == scheme && entry.param == param) {
            return entry.percentChange;
        }
    }
    ADD_FAILURE() << "missing entry";
    return 0.0;
}

class SensitivityTableTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        SensitivityConfig config;
        table_ = new std::vector<SensitivityEntry>(
            sensitivityTable(config));
    }

    static void
    TearDownTestSuite()
    {
        delete table_;
        table_ = nullptr;
    }

    static std::vector<SensitivityEntry> *table_;
};

std::vector<SensitivityEntry> *SensitivityTableTest::table_ = nullptr;

TEST_F(SensitivityTableTest, HasEverySchemeParameterPair)
{
    EXPECT_EQ(table_->size(), kNumParams * kNumPaperSchemes);
}

TEST_F(SensitivityTableTest, AplDominatesSoftwareFlush)
{
    // Paper: "For the Software-Flush scheme, apl has a huge effect."
    const double apl =
        changeOf(*table_, Scheme::SoftwareFlush, ParamId::InvApl);
    for (ParamId other : kAllParams) {
        if (other == ParamId::InvApl) {
            continue;
        }
        EXPECT_GT(std::abs(apl),
                  std::abs(changeOf(*table_, Scheme::SoftwareFlush,
                                    other)))
            << paramName(other);
    }
}

TEST_F(SensitivityTableTest, ShdIsSecondForSoftwareFlush)
{
    const auto ranked = rankedSensitivities(*table_,
                                            Scheme::SoftwareFlush);
    ASSERT_GE(ranked.size(), 2u);
    EXPECT_EQ(ranked[0].param, ParamId::InvApl);
    EXPECT_EQ(ranked[1].param, ParamId::Shd);
}

TEST_F(SensitivityTableTest, LsIsSignificantForSoftwareSchemes)
{
    for (Scheme scheme : {Scheme::SoftwareFlush, Scheme::NoCache}) {
        EXPECT_GT(std::abs(changeOf(*table_, scheme, ParamId::Ls)), 10.0)
            << schemeName(scheme);
    }
}

TEST_F(SensitivityTableTest, AplIsIrrelevantOutsideSoftwareFlush)
{
    for (Scheme scheme : {Scheme::Base, Scheme::NoCache,
                          Scheme::Dragon}) {
        EXPECT_NEAR(changeOf(*table_, scheme, ParamId::InvApl), 0.0,
                    1e-9)
            << schemeName(scheme);
    }
}

TEST_F(SensitivityTableTest, SharingParametersDoNotTouchBase)
{
    for (ParamId param : {ParamId::Shd, ParamId::Wr, ParamId::Mdshd,
                          ParamId::Oclean, ParamId::Opres,
                          ParamId::Nshd}) {
        EXPECT_NEAR(changeOf(*table_, Scheme::Base, param), 0.0, 1e-9)
            << paramName(param);
    }
}

TEST_F(SensitivityTableTest, DragonCaresMoreAboutMissRateThanSharing)
{
    // Paper: "In the Dragon scheme, the overall hit rate is more
    // important than the level of sharing."
    const double miss =
        std::abs(changeOf(*table_, Scheme::Dragon, ParamId::Msdat));
    const double shd =
        std::abs(changeOf(*table_, Scheme::Dragon, ParamId::Shd));
    EXPECT_GT(miss, shd);
}

TEST_F(SensitivityTableTest, WrIsUnimportantEverywhere)
{
    // Paper: "wr was unimportant even with a wide range." In a
    // contended 16-processor system every bus-demand knob moves the
    // execution time somewhat, so the faithful check is relative: wr
    // never ranks among a scheme's top-two parameters.
    for (Scheme scheme : kPaperSchemes) {
        const auto ranked = rankedSensitivities(*table_, scheme);
        for (std::size_t i = 0; i < 2 && i < ranked.size(); ++i) {
            EXPECT_NE(ranked[i].param, ParamId::Wr)
                << schemeName(scheme) << " rank " << i;
        }
    }
}

TEST_F(SensitivityTableTest, SoftwareSchemesAreMoreSensitiveThanDragon)
{
    // The paper's core finding: software schemes react far more
    // strongly to ls and shd than the snoopy scheme does.
    for (ParamId param : {ParamId::Ls, ParamId::Shd}) {
        const double dragon =
            std::abs(changeOf(*table_, Scheme::Dragon, param));
        EXPECT_GT(std::abs(changeOf(*table_, Scheme::NoCache, param)),
                  dragon)
            << paramName(param);
        EXPECT_GT(
            std::abs(changeOf(*table_, Scheme::SoftwareFlush, param)),
            dragon)
            << paramName(param);
    }
}

TEST_F(SensitivityTableTest, EntriesRecordConsistentTimes)
{
    for (const SensitivityEntry &entry : *table_) {
        EXPECT_GT(entry.timeLow, 0.0);
        EXPECT_GT(entry.timeHigh, 0.0);
        const double recomputed =
            100.0 * (entry.timeHigh - entry.timeLow) / entry.timeLow;
        EXPECT_NEAR(entry.percentChange, recomputed, 1e-9);
    }
}

TEST(SensitivityGridTest, GridAveragingRunsAndKeepsSigns)
{
    SensitivityConfig config;
    config.averageOverGrid = true;
    const SensitivityEntry pinned = parameterSensitivity(
        Scheme::SoftwareFlush, ParamId::Shd, SensitivityConfig{});
    const SensitivityEntry averaged = parameterSensitivity(
        Scheme::SoftwareFlush, ParamId::Shd, config);
    EXPECT_GT(pinned.percentChange, 0.0);
    EXPECT_GT(averaged.percentChange, 0.0);
}

TEST(SensitivityRankingTest, RankedListIsSortedByMagnitude)
{
    const auto table = sensitivityTable(SensitivityConfig{});
    const auto ranked = rankedSensitivities(table, Scheme::NoCache);
    ASSERT_EQ(ranked.size(), kNumParams);
    for (std::size_t i = 1; i < ranked.size(); ++i) {
        EXPECT_GE(std::abs(ranked[i - 1].percentChange),
                  std::abs(ranked[i].percentChange));
    }
}

TEST_F(SensitivityTableTest, CellsMatchParameterSensitivityBitwise)
{
    // Every slot of the table is exactly the standalone evaluation of
    // its (parameter, scheme) cell, in Table 2 then Table 8 order.
    const SensitivityConfig config;
    const std::vector<Scheme> columns = {
        Scheme::SoftwareFlush, Scheme::NoCache, Scheme::Dragon,
        Scheme::Base};
    ASSERT_EQ(table_->size(), kNumParams * columns.size());
    for (std::size_t i = 0; i < table_->size(); ++i) {
        const Scheme scheme = columns[i % columns.size()];
        const ParamId param = kAllParams[i / columns.size()];
        const SensitivityEntry &entry = (*table_)[i];
        EXPECT_EQ(entry.scheme, scheme) << i;
        EXPECT_EQ(entry.param, param) << i;
        const SensitivityEntry alone =
            parameterSensitivity(scheme, param, config);
        EXPECT_EQ(entry.timeLow, alone.timeLow) << i;
        EXPECT_EQ(entry.timeHigh, alone.timeHigh) << i;
        EXPECT_EQ(entry.percentChange, alone.percentChange) << i;
    }
}

TEST(SensitivityErrorTest, AFailingCellPropagatesItsError)
{
    // A zero-processor machine cannot be solved: every cell throws,
    // and the table must rethrow instead of holding NaN entries.
    SensitivityConfig config;
    config.processors = 0;
    for (unsigned threads : {1u, 4u}) {
        setThreadCount(threads);
        EXPECT_THROW(sensitivityTable(config), std::invalid_argument)
            << threads << " threads";
    }
    setThreadCount(0);
}

} // namespace
} // namespace swcc
