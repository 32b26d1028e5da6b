/**
 * @file
 * Equivalence tests for the measurements parameter extraction skips.
 *
 * extractParams() takes the Base miss rates from an untimed replay of
 * the trace through private caches, on the argument that Base touches
 * only the accessing processor's own cache, so its counts cannot depend
 * on the interleaving the timed simulator would choose. These tests
 * check that argument against a timed MultiprocessorSystem(Scheme::Base)
 * run, so a future Base protocol that starts reading other caches
 * fails here. They also check that validatePoint()'s reuse of its own
 * Dragon run gives exactly the extraction of a separate Dragon run.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <stdexcept>

#include "core/scheme_evaluator.hh"
#include "sim/mp/param_extractor.hh"
#include "sim/mp/system.hh"
#include "sim/mp/validation.hh"
#include "sim/synth/app_profiles.hh"
#include "sim/synth/trace_generator.hh"

namespace swcc
{
namespace
{

/** 68 is past the 64-CPU directory fallback. */
constexpr std::array<CpuId, 5> kCpuCounts = {1, 7, 16, 48, 68};

CacheConfig
cache8k()
{
    CacheConfig config;
    config.sizeBytes = 8 * 1024;
    config.blockBytes = 16;
    return config;
}

void
expectSameCounts(const BaseCacheCounts &replay, const SimStats &timed)
{
    EXPECT_EQ(replay.instrMisses, timed.instrMisses);
    EXPECT_EQ(replay.dataMisses, timed.dataMisses);
    EXPECT_EQ(replay.dirtyMisses, timed.dirtyMisses);
    EXPECT_EQ(replay.opCounts, timed.opCounts);
    ASSERT_EQ(replay.perCpu.size(), timed.perCpu.size());
    for (std::size_t cpu = 0; cpu < replay.perCpu.size(); ++cpu) {
        SCOPED_TRACE(::testing::Message() << "cpu " << cpu);
        EXPECT_EQ(replay.perCpu[cpu].instructions,
                  timed.perCpu[cpu].instructions);
        EXPECT_EQ(replay.perCpu[cpu].dataRefs,
                  timed.perCpu[cpu].dataRefs);
        EXPECT_EQ(replay.perCpu[cpu].flushes,
                  timed.perCpu[cpu].flushes);
    }
    EXPECT_EQ(replay.dataMissRate(), timed.dataMissRate());
    EXPECT_EQ(replay.instrMissRate(), timed.instrMissRate());
    EXPECT_EQ(replay.dirtyMissFraction(), timed.dirtyMissFraction());
}

TEST(BaseReplayTest, MatchesTimedBaseRunOnEveryProfile)
{
    for (AppProfile profile : kAllProfiles) {
        for (CpuId cpus : kCpuCounts) {
            SCOPED_TRACE(::testing::Message()
                         << profileName(profile) << " cpus " << cpus);
            const TraceBuffer trace = generateTrace(
                profileConfig(profile, cpus, 2'000, 90u + cpus, true));
            ASSERT_GT(trace.size(), 0u);

            MultiprocessorSystem timed(Scheme::Base, cache8k(), cpus);
            const SimStats stats = timed.run(trace);
            const BaseCacheCounts replay =
                replayBaseCaches(trace, cache8k(), cpus);
            EXPECT_GT(replay.dirtyMisses, 0u);
            expectSameCounts(replay, stats);
        }
    }
}

TEST(BaseReplayTest, CountsDoNotDependOnTheInterleaving)
{
    const TraceBuffer trace = generateTrace(
        profileConfig(AppProfile::PeroLike, 6, 3'000, 5, true));
    // The same per-processor streams, one processor after another.
    TraceBuffer serial;
    for (CpuId cpu = 0; cpu < trace.numCpus(); ++cpu) {
        for (const TraceEvent &event : trace) {
            if (event.cpu == cpu) {
                serial.append(event);
            }
        }
    }
    const BaseCacheCounts interleaved =
        replayBaseCaches(trace, cache8k(), 6);
    const BaseCacheCounts reordered =
        replayBaseCaches(serial, cache8k(), 6);
    EXPECT_EQ(interleaved.opCounts, reordered.opCounts);
    EXPECT_EQ(interleaved.instrMisses, reordered.instrMisses);
    EXPECT_EQ(interleaved.dataMisses, reordered.dataMisses);
    EXPECT_EQ(interleaved.dirtyMisses, reordered.dirtyMisses);
}

TEST(BaseReplayTest, RejectsTraceWiderThanTheReplay)
{
    const TraceBuffer trace =
        generateTrace(profileConfig(AppProfile::PeroLike, 4, 100, 1));
    EXPECT_THROW(replayBaseCaches(trace, cache8k(), 3),
                 std::invalid_argument);
}

TEST(BaseReplayTest, ValidatedDragonRunStandsInForExtractionsOwn)
{
    for (AppProfile profile :
         {AppProfile::PeroLike, AppProfile::PopsLike}) {
        for (CpuId cpus : kCpuCounts) {
            SCOPED_TRACE(::testing::Message()
                         << profileName(profile) << " cpus " << cpus);
            ValidationConfig config;
            config.profile = profile;
            config.scheme = Scheme::Dragon;
            config.cacheBytes = 8 * 1024;
            config.instructionsPerCpu = 1'500;
            config.seed = 21;
            const ValidationPoint point = validatePoint(config, cpus);

            // The same cell, extracted with a Dragon run of its own.
            const SyntheticWorkloadConfig workload = profileConfig(
                profile, cpus, config.instructionsPerCpu,
                config.seed + cpus, false);
            const TraceBuffer trace = generateTrace(workload);
            const SharedClassifier shared = workload.sharedClassifier();
            const ExtractedParams own =
                extractParams(trace, cache8k(), shared);

            MultiprocessorSystem dragon(Scheme::Dragon, cache8k(), cpus,
                                        shared);
            EXPECT_EQ(dragon.run(trace).serialize(),
                      point.sim.serialize());
            const ExtractedParams reused = extractParams(
                trace, cache8k(), shared,
                static_cast<const DragonProtocol &>(dragon.protocol())
                    .measurements());
            EXPECT_EQ(std::memcmp(&own.params, &reused.params,
                                  sizeof(WorkloadParams)),
                      0);
            EXPECT_EQ(evaluateBus(Scheme::Dragon, own.params, cpus)
                          .processingPower,
                      point.modelPower);
        }
    }
}

} // namespace
} // namespace swcc
