/**
 * @file
 * Golden values for workload-parameter extraction and validatePoint().
 *
 * extractParams() and validatePoint() may change how they measure, but
 * never what they measure. These tables pin every output bit for bit:
 * the 11 WorkloadParams fields, the three Base-scheme rates, the raw
 * Dragon sharing counts, and validatePoint()'s simulated and modelled
 * processing power. They were recorded from the implementation that
 * measured Base miss rates and Dragon sharing with two full timed
 * simulations per extraction. The cases cover a sharing-limited and a
 * capacity-limited profile, plain and flush-bearing traces, marked and
 * dynamic sharing, and 1 to 68 processors (past the 64-CPU directory
 * fallback).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "sim/mp/param_extractor.hh"
#include "sim/mp/validation.hh"
#include "sim/synth/app_profiles.hh"
#include "sim/synth/trace_generator.hh"

namespace swcc
{
namespace
{

CacheConfig
cache8k()
{
    CacheConfig config;
    config.sizeBytes = 8 * 1024;
    config.blockBytes = 16;
    return config;
}

struct ExtractGolden
{
    AppProfile profile;
    bool flushes;
    CpuId cpus;
    /** Marked (sharedClassifier()) or dynamic (null) sharing. */
    bool marked;

    /** ls, msdat, mains, md, shd, wr, apl, mdshd, oclean, opres, nshd. */
    std::array<double, 11> params;
    /** dataMissRate, instrMissRate, dirtyMissFraction. */
    std::array<double, 3> baseRates;
    /**
     * sharedMisses, sharedMissesClean, sharedWrites,
     * sharedWritesPresent, broadcasts, broadcastCopies.
     */
    std::array<std::uint64_t, 6> dragon;
};

// profileConfig(profile, cpus, 2'000, 40 + cpus, flushes), 8 KB cache.
const std::vector<ExtractGolden> kExtractGolden = {
    {AppProfile::PeroLike, false, 1, true,
     {0x1.6666666666666p-2, 0x1.7f44c118de5abp-3, 0x1.b22d0e5604189p-6,
      0x1.37a6f4de9bd38p-4, 0x1.536202ecfb9c8p-2, 0x1.b9611a7b9611ap-2,
      0x1.ec4ec4ec4ec4ep+2, 0x1p-2, 0x1p+0,
      0x0p+0, 0x1p+0},
     {0x1.7f44c118de5abp-3, 0x1.b22d0e5604189p-6, 0x1.37a6f4de9bd38p-4},
     {49, 49, 100, 0, 0, 0}},
    {AppProfile::PeroLike, false, 1, false,
     {0x1.6666666666666p-2, 0x1.7f44c118de5abp-3, 0x1.b22d0e5604189p-6,
      0x1.37a6f4de9bd38p-4, 0x0p+0, 0x0p+0,
      0x1.ec4ec4ec4ec4ep+2, 0x1p-2, 0x1.ae147ae147ae1p-1,
      0x1.947ae147ae148p-1, 0x1p+0},
     {0x1.7f44c118de5abp-3, 0x1.b22d0e5604189p-6, 0x1.37a6f4de9bd38p-4},
     {0, 0, 0, 0, 0, 0}},
    {AppProfile::PeroLike, false, 4, true,
     {0x1.689374bc6a7fp-2, 0x1.75af7baef018bp-3, 0x1.e978d4fdf3b64p-6,
      0x1.7754a74455ac6p-4, 0x1.7fdd1a71f5a3ep-2, 0x1.1e0f83e0f83e1p-2,
      0x1.4p+1, 0x1p-2, 0x1.f68fed1fda3fbp-1,
      0x1.bc4fd65883e7bp-6, 0x1.c71c71c71c71cp-1},
     {0x1.75af7baef018bp-3, 0x1.e978d4fdf3b64p-6, 0x1.7754a74455ac6p-4},
     {217, 213, 295, 8, 9, 8}},
    {AppProfile::PeroLike, false, 4, false,
     {0x1.689374bc6a7fp-2, 0x1.75af7baef018bp-3, 0x1.e978d4fdf3b64p-6,
      0x1.7754a74455ac6p-4, 0x1.e88dc4910a166p-8, 0x1.5555555555555p-1,
      0x1.4p+1, 0x1p-2, 0x1.b6db6db6db6dbp-2,
      0x1.2492492492492p-1, 0x1.c71c71c71c71cp-1},
     {0x1.75af7baef018bp-3, 0x1.e978d4fdf3b64p-6, 0x1.7754a74455ac6p-4},
     {7, 3, 14, 8, 9, 8}},
    {AppProfile::PeroLike, false, 16, true,
     {0x1.68c9e9e799cb9p-2, 0x1.6bd396bd396bdp-3, 0x1.ef16a9cd7d55p-6,
      0x1.63d06b925c0e8p-4, 0x1.26fc126fc127p-2, 0x1.5064e2febd29ap-2,
      0x1.0b33333333333p+2, 0x1p-2, 0x1.cd4122d719c06p-1,
      0x1.55a73a4d417fep-3, 0x1.ac9592b2564adp+0},
     {0x1.6bd396bd396bdp-3, 0x1.ef16a9cd7d55p-6, 0x1.63d06b925c0e8p-4},
     {676, 609, 1067, 178, 178, 298}},
    {AppProfile::PeroLike, false, 16, false,
     {0x1.68c9e9e799cb9p-2, 0x1.6bd396bd396bdp-3, 0x1.ef16a9cd7d55p-6,
      0x1.63d06b925c0e8p-4, 0x1.29e4129e4129ep-4, 0x1.9859e9859e986p-2,
      0x1.0b33333333333p+2, 0x1p-2, 0x1.3bfa2608c6f2dp-1,
      0x1.16b40fa8516b4p-1, 0x1.ac9592b2564adp+0},
     {0x1.6bd396bd396bdp-3, 0x1.ef16a9cd7d55p-6, 0x1.63d06b925c0e8p-4},
     {175, 108, 327, 178, 178, 298}},
    {AppProfile::PeroLike, false, 48, true,
     {0x1.657b900aec33ep-2, 0x1.61a2f63ce518dp-3, 0x1.dcac083126e98p-6,
      0x1.39a50eae0225fp-4, 0x1.3bb7f3e68483bp-2, 0x1.47d29cba02b9bp-2,
      0x1.c9c34115b1e5fp+1, 0x1p-2, 0x1.af5cc822f9af6p-1,
      0x1.25c3f26133138p-2, 0x1.6a65f87c82f3ap+1},
     {0x1.61a2f63ce518dp-3, 0x1.dcac083126e98p-6, 0x1.39a50eae0225fp-4},
     {2108, 1776, 3308, 949, 954, 2701}},
    {AppProfile::PeroLike, false, 48, false,
     {0x1.657b900aec33ep-2, 0x1.61a2f63ce518dp-3, 0x1.dcac083126e98p-6,
      0x1.39a50eae0225fp-4, 0x1.24c5afdb171d5p-3, 0x1.5bf586eb6d979p-2,
      0x1.c9c34115b1e5fp+1, 0x1p-2, 0x1.511e8d2b3183bp-1,
      0x1.2a74fe1cef046p-1, 0x1.6a65f87c82f3ap+1},
     {0x1.61a2f63ce518dp-3, 0x1.dcac083126e98p-6, 0x1.39a50eae0225fp-4},
     {972, 640, 1628, 949, 954, 2701}},
    {AppProfile::PeroLike, false, 68, true,
     {0x1.6a549202a67d8p-2, 0x1.693c8cd37921dp-3, 0x1.fc81a058aa962p-6,
      0x1.618db51b8927bp-4, 0x1.3956416421273p-2, 0x1.646692e81856fp-2,
      0x1.ee5fed8205c76p+1, 0x1p-2, 0x1.87b03e2ef9bf7p-1,
      0x1.9a330cd66400ap-2, 0x1.79f78a92c8856p+1},
     {0x1.693c8cd37921dp-3, 0x1.fc81a058aa962p-6, 0x1.618db51b8927bp-4},
     {3030, 2318, 5125, 2053, 2058, 6077}},
    {AppProfile::PeroLike, false, 68, false,
     {0x1.6a549202a67d8p-2, 0x1.693c8cd37921dp-3, 0x1.fc81a058aa962p-6,
      0x1.618db51b8927bp-4, 0x1.766318f32de38p-3, 0x1.83284dfd7f50fp-2,
      0x1.ee5fed8205c76p+1, 0x1p-2, 0x1.37428995fdbe9p-1,
      0x1.3c093c7f76123p-1, 0x1.79f78a92c8856p+1},
     {0x1.693c8cd37921dp-3, 0x1.fc81a058aa962p-6, 0x1.618db51b8927bp-4},
     {1816, 1104, 3326, 2053, 2058, 6077}},
    {AppProfile::PeroLike, true, 1, true,
     {0x1.5c77f907d72dfp-2, 0x1.3bfa2608c6f2dp-3, 0x1.fdc2852a30896p-6,
      0x1.7d05f417d05f4p-5, 0x1.98231bcb564fp-2, 0x1.d5cac807572b2p-2,
      0x1.ec4ec4ec4ec4ep+2, 0x1.8b3a62ce98b3ap-1, 0x1p+0,
      0x0p+0, 0x1p+0},
     {0x1.3bfa2608c6f2dp-3, 0x1.fdc2852a30896p-6, 0x1.7d05f417d05f4p-5},
     {46, 46, 128, 0, 0, 0}},
    {AppProfile::PeroLike, true, 1, false,
     {0x1.5c77f907d72dfp-2, 0x1.3bfa2608c6f2dp-3, 0x1.fdc2852a30896p-6,
      0x1.7d05f417d05f4p-5, 0x0p+0, 0x0p+0,
      0x1.ec4ec4ec4ec4ep+2, 0x0p+0, 0x1.ae147ae147ae1p-1,
      0x1.947ae147ae148p-1, 0x1p+0},
     {0x1.3bfa2608c6f2dp-3, 0x1.fdc2852a30896p-6, 0x1.7d05f417d05f4p-5},
     {0, 0, 0, 0, 0, 0}},
    {AppProfile::PeroLike, true, 4, true,
     {0x1.5f07457417115p-2, 0x1.5fd130463796bp-3, 0x1.c9570140f0b48p-6,
      0x1.7783ca8fb4e5ap-4, 0x1.3dce434a9b101p-2, 0x1.3a9fab285be9ap-2,
      0x1.d555555555555p+1, 0x1.e79e79e79e79ep-2, 0x1.eb851eb851eb8p-1,
      0x1.702e05c0b817p-6, 0x1.b6db6db6db6dbp-1},
     {0x1.5fd130463796bp-3, 0x1.c9570140f0b48p-6, 0x1.7783ca8fb4e5ap-4},
     {175, 168, 267, 6, 7, 6}},
    {AppProfile::PeroLike, true, 4, false,
     {0x1.5f07457417115p-2, 0x1.5fd130463796bp-3, 0x1.c9570140f0b48p-6,
      0x1.7783ca8fb4e5ap-4, 0x1.a54d880bb3ee7p-6, 0x1.5555555555555p-2,
      0x1.d555555555555p+1, 0x1.b6db6db6db6dbp-5, 0x1.1111111111111p-1,
      0x1p-2, 0x1.b6db6db6db6dbp-1},
     {0x1.5fd130463796bp-3, 0x1.c9570140f0b48p-6, 0x1.7783ca8fb4e5ap-4},
     {15, 8, 24, 6, 7, 6}},
    {AppProfile::PeroLike, true, 16, true,
     {0x1.5d5ce49b4ea3fp-2, 0x1.66cefe8dce776p-3, 0x1.d81fb35145866p-6,
      0x1.3180b509e68aap-4, 0x1.42154141b73cdp-2, 0x1.2066c012ae8f1p-2,
      0x1.d44aed44aed45p+1, 0x1.e2519f89467e2p-2, 0x1.d82d82d82d82ep-1,
      0x1.af286bca1af28p-3, 0x1.092fc534ab7bbp+1},
     {0x1.66cefe8dce776p-3, 0x1.d81fb35145866p-6, 0x1.3180b509e68aap-4},
     {720, 664, 988, 208, 209, 433}},
    {AppProfile::PeroLike, true, 16, false,
     {0x1.5d5ce49b4ea3fp-2, 0x1.66cefe8dce776p-3, 0x1.d81fb35145866p-6,
      0x1.3180b509e68aap-4, 0x1.8a6eae7e03b7fp-4, 0x1.2b61ba6604c47p-2,
      0x1.d44aed44aed45p+1, 0x1.3d96a1c32753ep-3, 0x1.8121fb78121fbp-1,
      0x1.5328c3ab35cf1p-1, 0x1.092fc534ab7bbp+1},
     {0x1.66cefe8dce776p-3, 0x1.d81fb35145866p-6, 0x1.3180b509e68aap-4},
     {226, 170, 314, 208, 209, 433}},
    {AppProfile::PeroLike, true, 48, true,
     {0x1.5f94872f7717ap-2, 0x1.68629fc3322dbp-3, 0x1.ea834ebfa14dfp-6,
      0x1.601d92f2231e8p-4, 0x1.43c7ffe0de4cap-2, 0x1.6206712b38332p-2,
      0x1.c34115b1e5f75p+1, 0x1.227b8d76ccf24p-1, 0x1.b1e2f7796ed56p-1,
      0x1.025d2ab099844p-2, 0x1.889fe5b72b88ap+1},
     {0x1.68629fc3322dbp-3, 0x1.ea834ebfa14dfp-6, 0x1.601d92f2231e8p-4},
     {2222, 1883, 3682, 929, 935, 2868}},
    {AppProfile::PeroLike, true, 48, false,
     {0x1.5f94872f7717ap-2, 0x1.68629fc3322dbp-3, 0x1.ea834ebfa14dfp-6,
      0x1.601d92f2231e8p-4, 0x1.19b473777ebb1p-3, 0x1.6844846490c52p-2,
      0x1.c34115b1e5f75p+1, 0x1.ffc19d4ddc2d5p-3, 0x1.5025597bb869dp-1,
      0x1.23ceffaf96758p-1, 0x1.889fe5b72b88ap+1},
     {0x1.68629fc3322dbp-3, 0x1.ea834ebfa14dfp-6, 0x1.601d92f2231e8p-4},
     {987, 648, 1630, 929, 935, 2868}},
    {AppProfile::PeroLike, true, 68, true,
     {0x1.61c2eab70b0c7p-2, 0x1.6f4ad3d64a14cp-3, 0x1.f8b9a1f5031e4p-6,
      0x1.5eb45b02fa66bp-4, 0x1.471880755ea8cp-2, 0x1.4b40bd0ef8709p-2,
      0x1.daba3ae4acf74p+1, 0x1.0b2eb161bd3f4p-1, 0x1.7bcaec4205d35p-1,
      0x1.9b4acefccd215p-2, 0x1.c4432c39f162dp+1},
     {0x1.6f4ad3d64a14cp-3, 0x1.f8b9a1f5031e4p-6, 0x1.5eb45b02fa66bp-4},
     {3164, 2347, 4962, 1993, 1997, 7056}},
    {AppProfile::PeroLike, true, 68, false,
     {0x1.61c2eab70b0c7p-2, 0x1.6f4ad3d64a14cp-3, 0x1.f8b9a1f5031e4p-6,
      0x1.5eb45b02fa66bp-4, 0x1.8fd559e1eeba3p-3, 0x1.6b65a9a804966p-2,
      0x1.daba3ae4acf74p+1, 0x1.68e8ddf0ce3bfp-2, 0x1.27b5dfb3c185bp-1,
      0x1.32b521a020027p-1, 0x1.c4432c39f162dp+1},
     {0x1.6f4ad3d64a14cp-3, 0x1.f8b9a1f5031e4p-6, 0x1.5eb45b02fa66bp-4},
     {1934, 1117, 3327, 1993, 1997, 7056}},
    {AppProfile::PopsLike, false, 1, true,
     {0x1.4395810624dd3p-2, 0x1.5abbf309b8b57p-3, 0x1.1a9fbe76c8b44p-5,
      0x1.1745d1745d174p-4, 0x1.151033d91d2a2p-2, 0x1.435e50d79435ep-3,
      0x1.ec4ec4ec4ec4ep+2, 0x1p-2, 0x1p+0,
      0x0p+0, 0x1p+0},
     {0x1.5abbf309b8b57p-3, 0x1.1a9fbe76c8b44p-5, 0x1.1745d1745d174p-4},
     {30, 30, 27, 0, 0, 0}},
    {AppProfile::PopsLike, false, 1, false,
     {0x1.4395810624dd3p-2, 0x1.5abbf309b8b57p-3, 0x1.1a9fbe76c8b44p-5,
      0x1.1745d1745d174p-4, 0x0p+0, 0x0p+0,
      0x1.ec4ec4ec4ec4ep+2, 0x1p-2, 0x1.ae147ae147ae1p-1,
      0x1.947ae147ae148p-1, 0x1p+0},
     {0x1.5abbf309b8b57p-3, 0x1.1a9fbe76c8b44p-5, 0x1.1745d1745d174p-4},
     {0, 0, 0, 0, 0, 0}},
    {AppProfile::PopsLike, false, 4, true,
     {0x1.5126e978d4fdfp-2, 0x1.5938909e9d72ep-3, 0x1.020c49ba5e354p-5,
      0x1.fa1d6cdfa1d6dp-5, 0x1.9cdd9833510e9p-3, 0x1.386822b63cbefp-2,
      0x1.dd1745d1745d1p+1, 0x1p-2, 0x1.def7bdef7bdefp-1,
      0x1.f9add3c0ca458p-4, 0x1.199999999999ap+0},
     {0x1.5938909e9d72ep-3, 0x1.020c49ba5e354p-5, 0x1.fa1d6cdfa1d6dp-5},
     {93, 87, 162, 20, 20, 22}},
    {AppProfile::PopsLike, false, 4, false,
     {0x1.5126e978d4fdfp-2, 0x1.5938909e9d72ep-3, 0x1.020c49ba5e354p-5,
      0x1.fa1d6cdfa1d6dp-5, 0x1.ad319133e6578p-6, 0x1.128cfc4a33f13p-1,
      0x1.dd1745d1745d1p+1, 0x1p-2, 0x1.2492492492492p-1,
      0x1.14c1bacf914c2p-1, 0x1.199999999999ap+0},
     {0x1.5938909e9d72ep-3, 0x1.020c49ba5e354p-5, 0x1.fa1d6cdfa1d6dp-5},
     {14, 8, 37, 20, 20, 22}},
    {AppProfile::PopsLike, false, 16, true,
     {0x1.4872b020c49bap-2, 0x1.60f90430af96ap-3, 0x1.0a7ef9db22d0ep-5,
      0x1.3c4f7126720fbp-4, 0x1.917586490762p-3, 0x1.f8dfefb6b633fp-3,
      0x1.8f0f0f0f0f0f1p+1, 0x1p-2, 0x1.f133caba736cp-1,
      0x1.8c6318c6318c6p-5, 0x1.1p+1},
     {0x1.60f90430af96ap-3, 0x1.0a7ef9db22d0ep-5, 0x1.3c4f7126720fbp-4},
     {346, 336, 496, 24, 24, 51}},
    {AppProfile::PopsLike, false, 16, false,
     {0x1.4872b020c49bap-2, 0x1.60f90430af96ap-3, 0x1.0a7ef9db22d0ep-5,
      0x1.3c4f7126720fbp-4, 0x1.1a89ad64c38abp-6, 0x1.fd1b7af017243p-3,
      0x1.8f0f0f0f0f0f1p+1, 0x1p-2, 0x1.6969696969697p-1,
      0x1.1745d1745d174p-1, 0x1.1p+1},
     {0x1.60f90430af96ap-3, 0x1.0a7ef9db22d0ep-5, 0x1.3c4f7126720fbp-4},
     {34, 24, 44, 24, 24, 51}},
    {AppProfile::PopsLike, false, 48, true,
     {0x1.461f671529a48p-2, 0x1.5c970d1cc0d99p-3, 0x1.07d9c54a69217p-5,
      0x1.47582192e29f8p-4, 0x1.9665eaeee6ee5p-3, 0x1.ffbf300f8726fp-3,
      0x1.ff3478d83f9a4p+1, 0x1p-2, 0x1.cb003e3cc75abp-1,
      0x1.5c89cb5061444p-3, 0x1.3711dc47711dcp+1},
     {0x1.5c970d1cc0d99p-3, 0x1.07d9c54a69217p-5, 0x1.47582192e29f8p-4},
     {1053, 944, 1516, 258, 258, 627}},
    {AppProfile::PopsLike, false, 48, false,
     {0x1.461f671529a48p-2, 0x1.5c970d1cc0d99p-3, 0x1.07d9c54a69217p-5,
      0x1.47582192e29f8p-4, 0x1.ebf01fe286cebp-5, 0x1.050505050505p-2,
      0x1.ff3478d83f9a4p+1, 0x1p-2, 0x1.576551355d954p-1,
      0x1.1a41a41a41a42p-1, 0x1.3711dc47711dcp+1},
     {0x1.5c970d1cc0d99p-3, 0x1.07d9c54a69217p-5, 0x1.47582192e29f8p-4},
     {331, 222, 468, 258, 258, 627}},
    {AppProfile::PopsLike, false, 68, true,
     {0x1.49d9355e5416ap-2, 0x1.6268584351b7dp-3, 0x1.0e372cef7edbp-5,
      0x1.379aad7ecd25ep-4, 0x1.b2c5187f28942p-3, 0x1.d628bd628bd63p-3,
      0x1.1de4b6f8c705ap+2, 0x1p-2, 0x1.a779a4a6605f7p-1,
      0x1.51a7fd1f4ba93p-2, 0x1.4a7c6259ac1cfp+1},
     {0x1.6268584351b7dp-3, 0x1.0e372cef7edbp-5, 0x1.379aad7ecd25ep-4},
     {1631, 1349, 2135, 704, 708, 1828}},
    {AppProfile::PopsLike, false, 68, false,
     {0x1.49d9355e5416ap-2, 0x1.6268584351b7dp-3, 0x1.0e372cef7edbp-5,
      0x1.379aad7ecd25ep-4, 0x1.c17300ef5b712p-4, 0x1.f3533d15918c4p-3,
      0x1.1de4b6f8c705ap+2, 0x1p-2, 0x1.57213c2eb5721p-1,
      0x1.338cab3fc815p-1, 0x1.4a7c6259ac1cfp+1},
     {0x1.6268584351b7dp-3, 0x1.0e372cef7edbp-5, 0x1.379aad7ecd25ep-4},
     {855, 573, 1172, 704, 708, 1828}},
    {AppProfile::PopsLike, true, 1, true,
     {0x1.3ac43981631fp-2, 0x1.7cb7cb7cb7cb8p-3, 0x1.064e2febd299ep-5,
      0x1.f1db39fd2bd86p-5, 0x1.1d89d89d89d8ap-2, 0x1.205e293205e29p-2,
      0x1.ec4ec4ec4ec4ep+2, 0x1.3333333333333p-1, 0x1p+0,
      0x0p+0, 0x1p+0},
     {0x1.7cb7cb7cb7cb8p-3, 0x1.064e2febd299ep-5, 0x1.f1db39fd2bd86p-5},
     {33, 33, 49, 0, 0, 0}},
    {AppProfile::PopsLike, true, 1, false,
     {0x1.3ac43981631fp-2, 0x1.7cb7cb7cb7cb8p-3, 0x1.064e2febd299ep-5,
      0x1.f1db39fd2bd86p-5, 0x0p+0, 0x0p+0,
      0x1.ec4ec4ec4ec4ep+2, 0x0p+0, 0x1.ae147ae147ae1p-1,
      0x1.947ae147ae148p-1, 0x1p+0},
     {0x1.7cb7cb7cb7cb8p-3, 0x1.064e2febd299ep-5, 0x1.f1db39fd2bd86p-5},
     {0, 0, 0, 0, 0, 0}},
    {AppProfile::PopsLike, true, 4, true,
     {0x1.40d2acb140103p-2, 0x1.6060fc2937f7fp-3, 0x1.fe7b0ff3d87fap-6,
      0x1.11dc47711dc47p-4, 0x1.a1d7fe6232835p-3, 0x1.d765823a6ded3p-3,
      0x1.8p+1, 0x1.11745d1745d17p-1, 0x1.f49f49f49f49fp-1,
      0x1.135c81135c811p-5, 0x1p+0},
     {0x1.6060fc2937f7fp-3, 0x1.fe7b0ff3d87fap-6, 0x1.11dc47711dc47p-4},
     {90, 88, 119, 4, 4, 4}},
    {AppProfile::PopsLike, true, 4, false,
     {0x1.40d2acb140103p-2, 0x1.6060fc2937f7fp-3, 0x1.fe7b0ff3d87fap-6,
      0x1.11dc47711dc47p-4, 0x1.365a1d7fe6233p-8, 0x1.5555555555555p-1,
      0x1.8p+1, 0x1.745d1745d1746p-5, 0x1.3333333333333p-1,
      0x1p-1, 0x1p+0},
     {0x1.6060fc2937f7fp-3, 0x1.fe7b0ff3d87fap-6, 0x1.11dc47711dc47p-4},
     {5, 3, 8, 4, 4, 4}},
    {AppProfile::PopsLike, true, 16, true,
     {0x1.4563af1681da1p-2, 0x1.5dab12cdaaacdp-3, 0x1.0a6a2c61a0562p-5,
      0x1.712e0e68e172ap-4, 0x1.9e38eee3e1d0ap-3, 0x1.ae7bdffc0f44dp-3,
      0x1.b13b13b13b13bp+1, 0x1.b37e875b37e87p-2, 0x1.f368eb04325c5p-1,
      0x1.516d8c0257df3p-4, 0x1.38e38e38e38e4p+0},
     {0x1.5dab12cdaaacdp-3, 0x1.0a6a2c61a0562p-5, 0x1.712e0e68e172ap-4},
     {366, 357, 437, 36, 36, 44}},
    {AppProfile::PopsLike, true, 16, false,
     {0x1.4563af1681da1p-2, 0x1.5dab12cdaaacdp-3, 0x1.0a6a2c61a0562p-5,
      0x1.712e0e68e172ap-4, 0x1.5849eb2126148p-6, 0x1.12f684bda12f7p-2,
      0x1.b13b13b13b13bp+1, 0x1.02f149902f14ap-4, 0x1.9bd37a6f4de9cp-1,
      0x1.3dcb08d3dcb09p-1, 0x1.38e38e38e38e4p+0},
     {0x1.5dab12cdaaacdp-3, 0x1.0a6a2c61a0562p-5, 0x1.712e0e68e172ap-4},
     {46, 37, 58, 36, 36, 44}},
    {AppProfile::PopsLike, true, 48, true,
     {0x1.432364ba25f64p-2, 0x1.62f8070336ce7p-3, 0x1.085e9b7d274c3p-5,
      0x1.4a108a21fce9p-4, 0x1.d8c79fc2d2e4fp-3, 0x1.c557d735323b1p-3,
      0x1.05d1745d1745dp+2, 0x1.dd937fe41cc25p-2, 0x1.c8c8c8c8c8c8dp-1,
      0x1.fb195280688e7p-3, 0x1.0738738738738p+1},
     {0x1.62f8070336ce7p-3, 0x1.085e9b7d274c3p-5, 0x1.4a108a21fce9p-4},
     {1224, 1092, 1567, 388, 390, 802}},
    {AppProfile::PopsLike, true, 48, false,
     {0x1.432364ba25f64p-2, 0x1.62f8070336ce7p-3, 0x1.085e9b7d274c3p-5,
      0x1.4a108a21fce9p-4, 0x1.57f2fa07ee4d4p-4, 0x1.e9224c8d2c3dap-3,
      0x1.05d1745d1745dp+2, 0x1.8d662e9feb159p-3, 0x1.687763dfdb43cp-1,
      0x1.430494304943p-1, 0x1.0738738738738p+1},
     {0x1.62f8070336ce7p-3, 0x1.085e9b7d274c3p-5, 0x1.4a108a21fce9p-4},
     {446, 314, 615, 388, 390, 802}},
    {AppProfile::PopsLike, true, 68, true,
     {0x1.45b7ce58bd781p-2, 0x1.62278d55d130dp-3, 0x1.06b68952387f3p-5,
      0x1.524fc9f3c5559p-4, 0x1.aa663ed87728ep-3, 0x1.e37f07baf613cp-3,
      0x1.1d41d41d41d42p+2, 0x1.f32636c8e08cbp-2, 0x1.bb522fd8f0dd5p-1,
      0x1.a1387066e053dp-3, 0x1.5938909e9d72ep+1},
     {0x1.62278d55d130dp-3, 0x1.06b68952387f3p-5, 0x1.524fc9f3c5559p-4},
     {1573, 1362, 2150, 438, 439, 1184}},
    {AppProfile::PopsLike, true, 68, false,
     {0x1.45b7ce58bd781p-2, 0x1.62278d55d130dp-3, 0x1.06b68952387f3p-5,
      0x1.524fc9f3c5559p-4, 0x1.48df023ad7a56p-4, 0x1.ef16be1ad3191p-3,
      0x1.1d41d41d41d42p+2, 0x1.8db238232b9ffp-3, 0x1.4f7a24cf7a24dp-1,
      0x1.08242f09f355fp-1, 0x1.5938909e9d72ep+1},
     {0x1.62278d55d130dp-3, 0x1.06b68952387f3p-5, 0x1.524fc9f3c5559p-4},
     {612, 401, 849, 438, 439, 1184}},
};

struct ValidateGolden
{
    AppProfile profile;
    Scheme scheme;
    CpuId cpus;
    double simPower;
    double modelPower;
};

// validatePoint() at 8 KB, 1'500 instructions per CPU, seed 5.
const std::vector<ValidateGolden> kValidateGolden = {
    {AppProfile::PeroLike, Scheme::Base, 1,
     0x1.e04cd9187eccap-2, 0x1.e04cd9187eccbp-2},
    {AppProfile::PeroLike, Scheme::Base, 4,
     0x1.5fd753240bfb7p+0, 0x1.4eb9dc387bc06p+0},
    {AppProfile::PeroLike, Scheme::Base, 16,
     0x1.6e607ded99238p+0, 0x1.632e09cb5d914p+0},
    {AppProfile::PeroLike, Scheme::Base, 48,
     0x1.76f0426a86decp+0, 0x1.679ee7042f827p+0},
    {AppProfile::PeroLike, Scheme::Base, 68,
     0x1.76770e46ebc2p+0, 0x1.6623e25d9ba67p+0},
    {AppProfile::PeroLike, Scheme::NoCache, 1,
     0x1.d0c018c9644fp-2, 0x1.be856b29deeb3p-2},
    {AppProfile::PeroLike, Scheme::NoCache, 4,
     0x1.22787c44bb476p+0, 0x1.12dbfdc9c2027p+0},
    {AppProfile::PeroLike, Scheme::NoCache, 16,
     0x1.31eee9fca0a1fp+0, 0x1.135f658b38109p+0},
    {AppProfile::PeroLike, Scheme::NoCache, 48,
     0x1.456d16ab78375p+0, 0x1.20d3b021355a7p+0},
    {AppProfile::PeroLike, Scheme::NoCache, 68,
     0x1.423a55950e181p+0, 0x1.1c3d5346fb3f7p+0},
    {AppProfile::PeroLike, Scheme::SoftwareFlush, 1,
     0x1.e0734edfbad0bp-2, 0x1.feea310ddc4afp-2},
    {AppProfile::PeroLike, Scheme::SoftwareFlush, 4,
     0x1.426a01407bcbap+0, 0x1.a4817b409ac97p-1},
    {AppProfile::PeroLike, Scheme::SoftwareFlush, 16,
     0x1.5e061fcc3b4d2p+0, 0x1.2cdf82675661cp+0},
    {AppProfile::PeroLike, Scheme::SoftwareFlush, 48,
     0x1.5f1380d66b118p+0, 0x1.267e4b83146eap+0},
    {AppProfile::PeroLike, Scheme::SoftwareFlush, 68,
     0x1.6a43c1a1d3b79p+0, 0x1.2a3fbec2197c5p+0},
    {AppProfile::PeroLike, Scheme::Dragon, 1,
     0x1.e04cd9187eccap-2, 0x1.e04cd9187eccbp-2},
    {AppProfile::PeroLike, Scheme::Dragon, 4,
     0x1.5ee25084ff374p+0, 0x1.4e5c1c090bdc3p+0},
    {AppProfile::PeroLike, Scheme::Dragon, 16,
     0x1.70c15facf18b9p+0, 0x1.61b5a479dcdcp+0},
    {AppProfile::PeroLike, Scheme::Dragon, 48,
     0x1.78506d367047ap+0, 0x1.63d8c48d52d2ap+0},
    {AppProfile::PeroLike, Scheme::Dragon, 68,
     0x1.79ea62158c173p+0, 0x1.61b91c7ca0b6dp+0},
    {AppProfile::PeroLike, Scheme::Mesi, 1,
     0x1.e04cd9187eccap-2, 0x1.e04cd9187eccbp-2},
    {AppProfile::PeroLike, Scheme::Mesi, 4,
     0x1.60680f60b23e1p+0, 0x1.4e80b153bd011p+0},
    {AppProfile::PeroLike, Scheme::Mesi, 16,
     0x1.6cd6b155fe064p+0, 0x1.5f35ffce9900bp+0},
    {AppProfile::PeroLike, Scheme::Mesi, 48,
     0x1.700c7f32428ebp+0, 0x1.49216aaaa6c1dp+0},
    {AppProfile::PeroLike, Scheme::Mesi, 68,
     0x1.6e550a5d544bcp+0, 0x1.43d7b398a5c4dp+0},
    {AppProfile::PeroLike, Scheme::Mesif, 1,
     0x1.e04cd9187eccap-2, 0x1.e04cd9187eccbp-2},
    {AppProfile::PeroLike, Scheme::Mesif, 4,
     0x1.60680f60b23e1p+0, 0x1.4eb298edd5a65p+0},
    {AppProfile::PeroLike, Scheme::Mesif, 16,
     0x1.6cd6b155fe064p+0, 0x1.606c18b39d93cp+0},
    {AppProfile::PeroLike, Scheme::Mesif, 48,
     0x1.7057f30bd823dp+0, 0x1.4b2e278969537p+0},
    {AppProfile::PeroLike, Scheme::Mesif, 68,
     0x1.6efd2a3916202p+0, 0x1.461efcd3f109bp+0},
    {AppProfile::PeroLike, Scheme::Moesi, 1,
     0x1.e04cd9187eccap-2, 0x1.e04cd9187eccbp-2},
    {AppProfile::PeroLike, Scheme::Moesi, 4,
     0x1.60680f60b23e1p+0, 0x1.4e0c5d17e4b71p+0},
    {AppProfile::PeroLike, Scheme::Moesi, 16,
     0x1.6cd6b155fe064p+0, 0x1.5b712550f2b6ep+0},
    {AppProfile::PeroLike, Scheme::Moesi, 48,
     0x1.701e9bb5b0125p+0, 0x1.3596a289d7454p+0},
    {AppProfile::PeroLike, Scheme::Moesi, 68,
     0x1.6ea3f7d51365ep+0, 0x1.2e552a5cc03e8p+0},
    {AppProfile::PeroLike, Scheme::Hybrid, 1,
     0x1.e04cd9187eccap-2, 0x1.e04cd9187eccbp-2},
    {AppProfile::PeroLike, Scheme::Hybrid, 4,
     0x1.5ee25084ff374p+0, 0x1.4e80b153bd011p+0},
    {AppProfile::PeroLike, Scheme::Hybrid, 16,
     0x1.70d82f25a101p+0, 0x1.61b5a479dcdcp+0},
    {AppProfile::PeroLike, Scheme::Hybrid, 48,
     0x1.78538e4860b18p+0, 0x1.63d8c48d52d2ap+0},
    {AppProfile::PeroLike, Scheme::Hybrid, 68,
     0x1.79d30e9461671p+0, 0x1.61b91c7ca0b6dp+0},
    {AppProfile::PopsLike, Scheme::Base, 1,
     0x1.f8ee53d18bddbp-2, 0x1.f8ee53d18bddbp-2},
    {AppProfile::PopsLike, Scheme::Base, 4,
     0x1.55d2a32af1cf5p+0, 0x1.43733cc3c249ap+0},
    {AppProfile::PopsLike, Scheme::Base, 16,
     0x1.87e0c2967ac97p+0, 0x1.7ce7b79f6e018p+0},
    {AppProfile::PopsLike, Scheme::Base, 48,
     0x1.8b7eeb2d31a3cp+0, 0x1.7bbe63839215cp+0},
    {AppProfile::PopsLike, Scheme::Base, 68,
     0x1.8981d4fa446cfp+0, 0x1.7a9809f286c97p+0},
    {AppProfile::PopsLike, Scheme::NoCache, 1,
     0x1.d9ed844e0a44cp-2, 0x1.de0b63ef7ab2dp-2},
    {AppProfile::PopsLike, Scheme::NoCache, 4,
     0x1.2d02533b8da67p+0, 0x1.1f5581b3df696p+0},
    {AppProfile::PopsLike, Scheme::NoCache, 16,
     0x1.4aeaf2810a9d4p+0, 0x1.37f98893ba7e2p+0},
    {AppProfile::PopsLike, Scheme::NoCache, 48,
     0x1.53e45f62e6ea5p+0, 0x1.39ae825d04ef2p+0},
    {AppProfile::PopsLike, Scheme::NoCache, 68,
     0x1.569d576c4f6f7p+0, 0x1.3aa60011d2fd4p+0},
    {AppProfile::PopsLike, Scheme::SoftwareFlush, 1,
     0x1.f71c97f0923cep-2, 0x1.068a1f7d975a1p-1},
    {AppProfile::PopsLike, Scheme::SoftwareFlush, 4,
     0x1.5e6c30a3bd799p+0, 0x1.55519108802e7p+0},
    {AppProfile::PopsLike, Scheme::SoftwareFlush, 16,
     0x1.7592a3875c7c7p+0, 0x1.347524fdb77e8p+0},
    {AppProfile::PopsLike, Scheme::SoftwareFlush, 48,
     0x1.7640af97aed9dp+0, 0x1.53a0f1c0c7897p+0},
    {AppProfile::PopsLike, Scheme::SoftwareFlush, 68,
     0x1.811447eefec6cp+0, 0x1.56f05cc25a07dp+0},
    {AppProfile::PopsLike, Scheme::Dragon, 1,
     0x1.f8ee53d18bddbp-2, 0x1.f8ee53d18bddbp-2},
    {AppProfile::PopsLike, Scheme::Dragon, 4,
     0x1.55d2a32af1cf5p+0, 0x1.43733cc3c249ap+0},
    {AppProfile::PopsLike, Scheme::Dragon, 16,
     0x1.8773e2c20bd21p+0, 0x1.7c35eff0c5cfbp+0},
    {AppProfile::PopsLike, Scheme::Dragon, 48,
     0x1.8b4a599871393p+0, 0x1.7a8c6e9c5323ep+0},
    {AppProfile::PopsLike, Scheme::Dragon, 68,
     0x1.88e4c34499bfap+0, 0x1.78c6e7bf845fep+0},
    {AppProfile::PopsLike, Scheme::Mesi, 1,
     0x1.f8ee53d18bddbp-2, 0x1.f8ee53d18bddbp-2},
    {AppProfile::PopsLike, Scheme::Mesi, 4,
     0x1.55d2a32af1cf5p+0, 0x1.43733cc3c249ap+0},
    {AppProfile::PopsLike, Scheme::Mesi, 16,
     0x1.86a900e28e2a6p+0, 0x1.7b384de66e504p+0},
    {AppProfile::PopsLike, Scheme::Mesi, 48,
     0x1.8960c444c9141p+0, 0x1.752a0dbe47ccfp+0},
    {AppProfile::PopsLike, Scheme::Mesi, 68,
     0x1.85cdc866dafedp+0, 0x1.6926d8fcc9eap+0},
    {AppProfile::PopsLike, Scheme::Mesif, 1,
     0x1.f8ee53d18bddbp-2, 0x1.f8ee53d18bddbp-2},
    {AppProfile::PopsLike, Scheme::Mesif, 4,
     0x1.55d2a32af1cf5p+0, 0x1.43733cc3c249ap+0},
    {AppProfile::PopsLike, Scheme::Mesif, 16,
     0x1.86c51ee0066f6p+0, 0x1.7c1e087d0c99fp+0},
    {AppProfile::PopsLike, Scheme::Mesif, 48,
     0x1.898270e2a322cp+0, 0x1.76a1e0fa7af98p+0},
    {AppProfile::PopsLike, Scheme::Mesif, 68,
     0x1.8609db10d2f93p+0, 0x1.6aed9d6e33714p+0},
    {AppProfile::PopsLike, Scheme::Moesi, 1,
     0x1.f8ee53d18bddbp-2, 0x1.f8ee53d18bddbp-2},
    {AppProfile::PopsLike, Scheme::Moesi, 4,
     0x1.55d2a32af1cf5p+0, 0x1.43733cc3c249ap+0},
    {AppProfile::PopsLike, Scheme::Moesi, 16,
     0x1.86c51ee0066f6p+0, 0x1.79b3218d3b12bp+0},
    {AppProfile::PopsLike, Scheme::Moesi, 48,
     0x1.897091066922bp+0, 0x1.6f9fe808019c9p+0},
    {AppProfile::PopsLike, Scheme::Moesi, 68,
     0x1.85e2a8847c7ap+0, 0x1.5c7bbdec8afc9p+0},
    {AppProfile::PopsLike, Scheme::Hybrid, 1,
     0x1.f8ee53d18bddbp-2, 0x1.f8ee53d18bddbp-2},
    {AppProfile::PopsLike, Scheme::Hybrid, 4,
     0x1.55d2a32af1cf5p+0, 0x1.43733cc3c249ap+0},
    {AppProfile::PopsLike, Scheme::Hybrid, 16,
     0x1.8773e2c20bd21p+0, 0x1.7c35eff0c5cfbp+0},
    {AppProfile::PopsLike, Scheme::Hybrid, 48,
     0x1.8b47dda42cc92p+0, 0x1.7a8c6e9c5323ep+0},
    {AppProfile::PopsLike, Scheme::Hybrid, 68,
     0x1.88de38f7512cap+0, 0x1.78c6e7bf845fep+0},
};

TEST(ExtractGoldenTest, ExtractionReproducesRecordedValues)
{
    for (const ExtractGolden &golden : kExtractGolden) {
        SCOPED_TRACE(::testing::Message()
                     << profileName(golden.profile) << " flushes "
                     << golden.flushes << " cpus " << golden.cpus
                     << " marked " << golden.marked);
        const SyntheticWorkloadConfig workload =
            profileConfig(golden.profile, golden.cpus, 2'000,
                          40 + golden.cpus, golden.flushes);
        const TraceBuffer trace = generateTrace(workload);
        const ExtractedParams extracted = extractParams(
            trace, cache8k(),
            golden.marked ? workload.sharedClassifier()
                          : SharedClassifier());

        const WorkloadParams &p = extracted.params;
        const std::array<double, 11> params = {
            p.ls, p.msdat, p.mains, p.md, p.shd, p.wr,
            p.apl, p.mdshd, p.oclean, p.opres, p.nshd};
        EXPECT_EQ(params, golden.params);

        const std::array<double, 3> base_rates = {
            extracted.baseStats.dataMissRate(),
            extracted.baseStats.instrMissRate(),
            extracted.baseStats.dirtyMissFraction()};
        EXPECT_EQ(base_rates, golden.baseRates);

        const DragonMeasurements &d = extracted.dragonMeasurements;
        const std::array<std::uint64_t, 6> dragon = {
            d.sharedMisses, d.sharedMissesClean, d.sharedWrites,
            d.sharedWritesPresent, d.broadcasts, d.broadcastCopies};
        EXPECT_EQ(dragon, golden.dragon);
    }
}

TEST(ExtractGoldenTest, ValidatePointReproducesRecordedPowers)
{
    for (const ValidateGolden &golden : kValidateGolden) {
        SCOPED_TRACE(::testing::Message()
                     << profileName(golden.profile) << ' '
                     << schemeName(golden.scheme) << " cpus "
                     << golden.cpus);
        ValidationConfig config;
        config.profile = golden.profile;
        config.scheme = golden.scheme;
        config.cacheBytes = 8 * 1024;
        config.instructionsPerCpu = 1'500;
        config.seed = 5;
        const ValidationPoint point = validatePoint(config, golden.cpus);
        EXPECT_EQ(point.simPower, golden.simPower);
        EXPECT_EQ(point.modelPower, golden.modelPower);
    }
}

} // namespace
} // namespace swcc
