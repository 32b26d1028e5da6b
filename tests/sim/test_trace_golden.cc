/**
 * @file
 * Golden digests of the synthetic trace generator.
 *
 * generateTrace() may change how it keeps its LRU stacks, but never
 * which trace it emits. These tables pin every event (address,
 * processor, reference type) of a set of traces by an FNV-1a 64 digest
 * and an event count, recorded from the implementation that kept each
 * segment stack MRU-first. The cases cover every profile with and
 * without flush instructions at 1, 16 and 48 processors, one run with
 * process migration (stacks restarted cold mid-trace) and one with
 * tiny segments, where allocation runs out and the generator falls
 * back to reusing the coldest block.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/synth/app_profiles.hh"
#include "sim/synth/trace_generator.hh"

namespace swcc
{
namespace
{

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x00000100000001b3ull;

/** FNV-1a 64 over the little-endian bytes of @p value. */
std::uint64_t
mix(std::uint64_t hash, std::uint64_t value, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i) {
        hash ^= (value >> (8 * i)) & 0xffu;
        hash *= kFnvPrime;
    }
    return hash;
}

/** Digest of every event's fields, in trace order. */
std::uint64_t
digest(const TraceBuffer &trace)
{
    std::uint64_t hash = kFnvOffset;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TraceEvent &event = trace[i];
        hash = mix(hash, event.addr, 8);
        hash = mix(hash, event.cpu, 2);
        hash = mix(hash, static_cast<std::uint8_t>(event.type), 1);
    }
    return hash;
}

constexpr std::size_t kInstructions = 6'000;
constexpr std::uint64_t kSeed = 29;

struct TraceGolden
{
    AppProfile profile;
    bool flushes;
    unsigned cpus;
    std::size_t events;
    std::uint64_t digest;
};

const std::vector<TraceGolden> kProfileGolden = {
    {AppProfile::PopsLike, false, 1, 7909, 0xc5b40b7e75195690ull},
    {AppProfile::PopsLike, false, 16, 126925, 0x31f0407ab67192f5ull},
    {AppProfile::PopsLike, false, 48, 380584, 0x3469a2c9c57842fcull},
    {AppProfile::PopsLike, true, 1, 8022, 0x428cebe0149dceb7ull},
    {AppProfile::PopsLike, true, 16, 129025, 0x41ba6bb9574bc07eull},
    {AppProfile::PopsLike, true, 48, 386958, 0xc13e3ef22d609167ull},
    {AppProfile::ThorLike, false, 1, 7562, 0xc55a1fb2394c13a5ull},
    {AppProfile::ThorLike, false, 16, 121811, 0xdacc38a0efee2794ull},
    {AppProfile::ThorLike, false, 48, 365526, 0x3c3b4bdae8bc7648ull},
    {AppProfile::ThorLike, true, 1, 7635, 0x79bdf48ba6b73f6ull},
    {AppProfile::ThorLike, true, 16, 122247, 0x35a9b99241d453bdull},
    {AppProfile::ThorLike, true, 48, 366826, 0x9514cfa15f7f0ef0ull},
    {AppProfile::PeroLike, false, 1, 8113, 0x1aaa268e375a60fdull},
    {AppProfile::PeroLike, false, 16, 129935, 0xcdf3f37bc70a7aadull},
    {AppProfile::PeroLike, false, 48, 389063, 0xa0898aa1582e9fbdull},
    {AppProfile::PeroLike, true, 1, 8502, 0xc00aabb14d8a1f6cull},
    {AppProfile::PeroLike, true, 16, 134200, 0xab1f387055f89653ull},
    {AppProfile::PeroLike, true, 48, 401463, 0xb884e9a7764b0cebull},
};

void
expectGolden(const SyntheticWorkloadConfig &config, std::size_t events,
             std::uint64_t expected)
{
    const TraceBuffer trace = generateTrace(config);
    EXPECT_EQ(trace.size(), events);
    EXPECT_EQ(digest(trace), expected)
        << std::hex << std::showbase << "digest " << digest(trace);
}

TEST(TraceGoldenTest, EveryProfileAtOneSixteenAndFortyEightCpus)
{
    for (const TraceGolden &golden : kProfileGolden) {
        SCOPED_TRACE(testing::Message()
                     << profileName(golden.profile) << " flushes "
                     << golden.flushes << " cpus " << golden.cpus);
        expectGolden(profileConfig(golden.profile, golden.cpus,
                                   kInstructions, kSeed, golden.flushes),
                     golden.events, golden.digest);
    }
}

TEST(TraceGoldenTest, MigrationRestartsStacksCold)
{
    SyntheticWorkloadConfig config =
        profileConfig(AppProfile::PeroLike, 8, kInstructions, kSeed);
    config.migrationIntervalInstrs = 2'000;
    expectGolden(config, 64867, 0x7df0215be43c44ceull);
}

TEST(TraceGoldenTest, TinySegmentsReuseTheColdestBlock)
{
    // 16 code and 32 private blocks: Pareto distances past the stack
    // depth soon find allocation exhausted.
    SyntheticWorkloadConfig config =
        profileConfig(AppProfile::PopsLike, 4, kInstructions, kSeed, true);
    config.codeBytes = 16 * config.blockBytes;
    config.privateBytes = 32 * config.blockBytes;
    expectGolden(config, 32069, 0x9bc94ae1840c58d6ull);
}

} // namespace
} // namespace swcc
