/**
 * @file
 * Golden statistics of the hardware coherence protocols.
 *
 * Dragon, the MESI family and the adaptive hybrid may change how they
 * walk the other caches, but never what a run reports. Each case pins
 * the SimStats::serialize() digest of every hardware protocol on one
 * profile trace, plus MESI's coherence counters, at 4, 16, 48 and 68
 * processors (the last past the 64-CPU directory fallback). The
 * values were recorded from the implementation in which each protocol
 * class wrote its own miss fill, update walk and invalidate walk.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

#include "sim/cache/mesi_family_protocol.hh"
#include "sim/mp/system.hh"
#include "sim/synth/app_profiles.hh"
#include "sim/synth/trace_generator.hh"

namespace swcc
{
namespace
{

constexpr std::array<Scheme, 5> kHardwareSchemes = {
    Scheme::Dragon, Scheme::Mesi, Scheme::Mesif, Scheme::Moesi,
    Scheme::Hybrid,
};

struct ProtocolGolden
{
    AppProfile profile;
    CpuId cpus;
    /** FNV-1a 64 of serialize(), in kHardwareSchemes order. */
    std::array<std::uint64_t, kHardwareSchemes.size()> digests;
    /**
     * MESI's invalidations, copiesInvalidated, coherenceMisses,
     * ownerSupplies and forwardSupplies.
     */
    std::array<std::uint64_t, 5> mesi;
};

// profileConfig(profile, cpus, 6'000, 90 + cpus, false), 64 KB cache,
// the profile's shared classifier.
const ProtocolGolden kProtocolGolden[] = {
    {AppProfile::PeroLike, 4,
     {0x1d189bb93216f5ceull, 0xa48d5a2509990ebfull, 0xd5f1364327357fd4ull,
      0x2d08307495078780ull, 0xf7f99cc1cce764f5ull},
     {63, 63, 14, 52, 0}},
    {AppProfile::PeroLike, 16,
     {0x11a789c743b05b81ull, 0x4c3e1bf9eade73fcull, 0x941b392c4e84d6a1ull,
      0xe05eea0b5bba67bcull, 0x13642b6d29ef626bull},
     {418, 467, 125, 418, 0}},
    {AppProfile::PeroLike, 48,
     {0x5fb9c89e95dadba5ull, 0xb6c8d0c29ffa0566ull, 0x9b12dbdaf4525024ull,
      0xbd53e80b0c17dd9dull, 0x273e41c5bdde3ce8ull},
     {2481, 3174, 906, 2483, 0}},
    {AppProfile::PeroLike, 68,
     {0xb253fde30323eab0ull, 0xc13d2fdf02d2ce07ull, 0xde24c2bb57bf4277ull,
      0x87cabff17fee9526ull, 0x61183b958934e1c3ull},
     {3636, 4790, 1275, 3633, 0}},
    {AppProfile::PopsLike, 4,
     {0x18ca00b0789abee2ull, 0x7247c3bdef234be0ull, 0xcb4ce80d85be2271ull,
      0xfd27ea9362387ce3ull, 0xb77eb3553a1c80aaull},
     {18, 22, 0, 10, 0}},
    {AppProfile::PopsLike, 16,
     {0x736916a7153e1baaull, 0x77f3e2a58b0536e5ull, 0x3b6ae0bd666d43aeull,
      0xd8afba004c108430ull, 0x5b3ec24d5f43c3e8ull},
     {136, 149, 29, 172, 0}},
    {AppProfile::PopsLike, 48,
     {0x2e8327b8b084bce3ull, 0xd57f4d64520eed66ull, 0xb32b49852a1b698dull,
      0xe43d1bf43f231e76ull, 0x6a6ba879367c7aebull},
     {886, 1063, 274, 883, 0}},
    {AppProfile::PopsLike, 68,
     {0x843dcc3925518a23ull, 0x7b7fdb4be7d5938ull, 0xc023c6f89cb73e1bull,
      0xab14f080017806ceull, 0x7d85980d7058fb40ull},
     {1701, 2148, 533, 1693, 0}},
    {AppProfile::ThorLike, 4,
     {0xb0be19ddc64f54beull, 0x68ab56551d3afa04ull, 0x9c7c262dda2f0153ull,
      0xc4772708684d2297ull, 0x2946c3e413345a66ull},
     {0, 0, 0, 0, 0}},
    {AppProfile::ThorLike, 16,
     {0x9334687f5c48c658ull, 0x6796a1246e1dcafdull, 0x7148b43a20863bccull,
      0xd4aebbe1d409e7a0ull, 0xf97021507253fd39ull},
     {3, 3, 0, 0, 0}},
    {AppProfile::ThorLike, 48,
     {0x2e1587cd95b4ba4cull, 0x1ac0a4c064f28af7ull, 0xaf3d25fd798b279dull,
      0x2aca725c02a699acull, 0x67641074a93caf63ull},
     {58, 61, 7, 47, 0}},
    {AppProfile::ThorLike, 68,
     {0xd820197a6dc76539ull, 0xf0bf94f216adf165ull, 0x33b12b92deff1e81ull,
      0xbd9b3b8344f400a2ull, 0x9f3094f2581fb095ull},
     {92, 99, 6, 91, 0}},
};

std::uint64_t
fnv1a(std::string_view bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::array<std::uint64_t, 5>
mesiCounters(const MesiFamilyMeasurements &m)
{
    return {m.invalidations, m.copiesInvalidated, m.coherenceMisses,
            m.ownerSupplies, m.forwardSupplies};
}

std::string
render(const ProtocolGolden &g)
{
    std::ostringstream out;
    static constexpr std::array<std::string_view, 3> kEnumerators = {
        "PopsLike", "ThorLike", "PeroLike"};
    out << "{AppProfile::"
        << kEnumerators[static_cast<std::size_t>(g.profile)] << ", "
        << g.cpus
        << ",\n {";
    for (std::size_t i = 0; i < g.digests.size(); ++i) {
        out << (i > 0 ? ", " : "") << "0x" << std::hex << g.digests[i]
            << "ull" << std::dec;
    }
    out << "},\n {";
    for (std::size_t i = 0; i < g.mesi.size(); ++i) {
        out << (i > 0 ? ", " : "") << g.mesi[i];
    }
    out << "}},";
    return out.str();
}

void
PrintTo(const ProtocolGolden &golden, std::ostream *os)
{
    *os << profileName(golden.profile) << ", " << golden.cpus
        << " CPUs";
}

class ProtocolGoldenTest : public ::testing::TestWithParam<ProtocolGolden>
{
};

TEST_P(ProtocolGoldenTest, StatisticsMatchTheRecordedDigests)
{
    const ProtocolGolden &golden = GetParam();
    const SyntheticWorkloadConfig workload = profileConfig(
        golden.profile, golden.cpus, 6'000, 90 + golden.cpus, false);
    const TraceBuffer trace = generateTrace(workload);
    const SharedClassifier shared = workload.sharedClassifier();

    CacheConfig cache;
    cache.sizeBytes = 64 * 1024;
    cache.blockBytes = 16;

    ProtocolGolden actual{golden.profile, golden.cpus, {}, {}};
    for (std::size_t i = 0; i < kHardwareSchemes.size(); ++i) {
        MultiprocessorSystem system(kHardwareSchemes[i], cache,
                                    golden.cpus, shared);
        actual.digests[i] = fnv1a(system.run(trace).serialize());
        if (kHardwareSchemes[i] == Scheme::Mesi) {
            actual.mesi = mesiCounters(
                static_cast<const MesiFamilyProtocol &>(
                    system.protocol())
                    .measurements());
        }
    }
    EXPECT_EQ(actual.digests, golden.digests) << render(actual);
    EXPECT_EQ(actual.mesi, golden.mesi) << render(actual);
}

INSTANTIATE_TEST_SUITE_P(
    Recorded, ProtocolGoldenTest, ::testing::ValuesIn(kProtocolGolden),
    [](const auto &param_info) {
        std::string name(profileName(param_info.param.profile));
        name.erase(name.find('-'));
        return name + "_" + std::to_string(param_info.param.cpus) + "cpus";
    });

} // namespace
} // namespace swcc
