/**
 * @file
 * Unit tests for workload-parameter extraction.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/obs/log.hh"
#include "sim/mp/param_extractor.hh"
#include "sim/mp/validation.hh"
#include "sim/synth/app_profiles.hh"
#include "sim/synth/trace_generator.hh"

namespace swcc
{
namespace
{

CacheConfig
cache64k()
{
    CacheConfig c;
    c.sizeBytes = 64 * 1024;
    c.blockBytes = 16;
    return c;
}

class ExtractorTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        workload_ = new SyntheticWorkloadConfig(
            profileConfig(AppProfile::PopsLike, 4, 60'000, 33, true));
        trace_ = new TraceBuffer(generateTrace(*workload_));
        extracted_ = new ExtractedParams(extractParams(
            *trace_, cache64k(), workload_->sharedClassifier()));
    }

    static void
    TearDownTestSuite()
    {
        delete extracted_;
        delete trace_;
        delete workload_;
    }

    static SyntheticWorkloadConfig *workload_;
    static TraceBuffer *trace_;
    static ExtractedParams *extracted_;
};

SyntheticWorkloadConfig *ExtractorTest::workload_ = nullptr;
TraceBuffer *ExtractorTest::trace_ = nullptr;
ExtractedParams *ExtractorTest::extracted_ = nullptr;

TEST_F(ExtractorTest, ExtractedParametersAreValid)
{
    EXPECT_NO_THROW(extracted_->params.validate());
}

TEST_F(ExtractorTest, DirectCountsComeFromTheTrace)
{
    EXPECT_DOUBLE_EQ(extracted_->params.ls, extracted_->traceStats.ls);
    EXPECT_DOUBLE_EQ(extracted_->params.shd,
                     extracted_->traceStats.shd);
    EXPECT_DOUBLE_EQ(extracted_->params.wr, extracted_->traceStats.wr);
    EXPECT_NEAR(extracted_->params.ls, workload_->ls, 0.03);
    EXPECT_NEAR(extracted_->params.shd, workload_->shd, 0.05);
}

TEST_F(ExtractorTest, MissRatesComeFromTheBaseSimulation)
{
    EXPECT_DOUBLE_EQ(extracted_->params.msdat,
                     extracted_->baseStats.dataMissRate());
    EXPECT_DOUBLE_EQ(extracted_->params.mains,
                     extracted_->baseStats.instrMissRate());
    EXPECT_DOUBLE_EQ(extracted_->params.md,
                     extracted_->baseStats.dirtyMissFraction());
    EXPECT_GT(extracted_->params.msdat, 0.0);
    EXPECT_LT(extracted_->params.msdat, 0.2);
    EXPECT_GT(extracted_->params.mains, 0.0);
    EXPECT_LT(extracted_->params.mains, 0.1);
}

TEST_F(ExtractorTest, SharingParametersComeFromTheDragonRun)
{
    const DragonMeasurements &m = extracted_->dragonMeasurements;
    EXPECT_GT(m.sharedMisses, 0u);
    EXPECT_GT(m.sharedWrites, 0u);
    EXPECT_DOUBLE_EQ(extracted_->params.oclean, m.oclean());
    EXPECT_DOUBLE_EQ(extracted_->params.opres, m.opres());
    EXPECT_GE(extracted_->params.oclean, 0.0);
    EXPECT_LE(extracted_->params.oclean, 1.0);
    EXPECT_GE(extracted_->params.nshd, 0.0);
}

TEST_F(ExtractorTest, FlushBearingTraceYieldsMeasuredMdshd)
{
    ASSERT_TRUE(extracted_->traceStats.mdshd.has_value());
    EXPECT_DOUBLE_EQ(extracted_->params.mdshd,
                     *extracted_->traceStats.mdshd);
}

TEST(ExtractorDefaultsTest, HardwareTraceFallsBackForMdshd)
{
    // A trace without flushes cannot expose mdshd; the Table 7 middle
    // value stands in.
    const SyntheticWorkloadConfig workload =
        profileConfig(AppProfile::ThorLike, 2, 10'000, 7, false);
    const TraceBuffer trace = generateTrace(workload);
    const ExtractedParams extracted =
        extractParams(trace, cache64k(), workload.sharedClassifier());
    EXPECT_FALSE(extracted.traceStats.mdshd.has_value());
    EXPECT_DOUBLE_EQ(extracted.params.mdshd, 0.25);
}

/**
 * Warnings @p fn prints. Earlier warnings are flushed first so that
 * each call site prints again instead of only counting.
 */
template <typename Fn>
std::string
warningsOf(Fn &&fn)
{
    std::ostringstream discarded;
    std::ostringstream captured;
    const obs::LogLevel saved = obs::logLevel();
    obs::setLogLevel(obs::LogLevel::Warn);
    obs::setLogSink(&discarded);
    obs::flushLogRepeats();
    obs::setLogSink(&captured);
    fn();
    obs::setLogSink(nullptr);
    obs::setLogLevel(saved);
    return captured.str();
}

/** Fallback warnings extracting @p trace gives for Software-Flush. */
std::string
extractionWarnings(const TraceBuffer &trace,
                   const SharedClassifier &shared)
{
    return warningsOf([&] {
        warnDefaultedParams(extractParams(trace, cache64k(), shared),
                            Scheme::SoftwareFlush);
    });
}

TEST(ExtractorDefaultsTest, MdshdFallbackWarningNamesMissingFlushes)
{
    // analyzeTrace leaves mdshd unset only when the trace holds no
    // flush events, so that is the cause the warning has to give.
    const SyntheticWorkloadConfig workload =
        profileConfig(AppProfile::ThorLike, 2, 10'000, 7, false);
    const std::string warnings = extractionWarnings(
        generateTrace(workload), workload.sharedClassifier());
    EXPECT_NE(warnings.find("trace has no flush events; mdshd falls "
                            "back"),
              std::string::npos)
        << warnings;
    EXPECT_EQ(warnings.find("shared-block misses"), std::string::npos)
        << warnings;
}

TEST(ExtractorDefaultsTest, FlushBearingTraceGivesNoMdshdWarning)
{
    const SyntheticWorkloadConfig workload =
        profileConfig(AppProfile::PopsLike, 4, 20'000, 33, true);
    const std::string warnings = extractionWarnings(
        generateTrace(workload), workload.sharedClassifier());
    EXPECT_EQ(warnings.find("mdshd"), std::string::npos) << warnings;
}

TEST(ExtractorDefaultsTest, DragonValidationGivesNoMdshdWarning)
{
    // Only Software-Flush's table reads mdshd, so a Dragon point on a
    // flush-free trace has no fallback worth naming.
    ValidationConfig config;
    config.profile = AppProfile::ThorLike;
    config.scheme = Scheme::Dragon;
    config.instructionsPerCpu = 5'000;
    const std::string warnings =
        warningsOf([&] { (void)validatePoint(config, 2); });
    EXPECT_EQ(warnings.find("mdshd"), std::string::npos) << warnings;
}

TEST(ExtractorDefaultsTest, DynamicSharingWorksWithoutClassifier)
{
    const SyntheticWorkloadConfig workload =
        profileConfig(AppProfile::PopsLike, 4, 20'000, 13, false);
    const TraceBuffer trace = generateTrace(workload);
    const ExtractedParams extracted = extractParams(trace, cache64k());
    EXPECT_NO_THROW(extracted.params.validate());
    EXPECT_GT(extracted.params.shd, 0.0);
    // Dynamic sharing is a subset of the marked region.
    const ExtractedParams marked = extractParams(
        trace, cache64k(), workload.sharedClassifier());
    EXPECT_LE(extracted.params.shd, marked.params.shd + 1e-12);
}

TEST(ExtractorDefaultsTest, SingleCpuTraceHasNoSharing)
{
    const SyntheticWorkloadConfig workload =
        profileConfig(AppProfile::PopsLike, 1, 10'000, 3, false);
    const TraceBuffer trace = generateTrace(workload);
    const ExtractedParams extracted = extractParams(trace, cache64k());
    EXPECT_DOUBLE_EQ(extracted.params.shd, 0.0);
}

} // namespace
} // namespace swcc
