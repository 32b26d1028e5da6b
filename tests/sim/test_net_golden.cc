/**
 * @file
 * Golden-statistics tests for the network simulators.
 *
 * The omega simulator's per-cycle path is table-driven and
 * allocation-free; these tests pin that it reproduces every statistic
 * of the straightforward implementation it replaced, bit for bit. The
 * expected values are hexfloat-exact OmegaStats (unit-request and
 * circuit mode) and PacketNetStats recorded from that implementation.
 * The 300-wide single-stage crossbar catches a routing table whose
 * digit entries are too narrow for a wide switch; the 65536-wide one
 * is the widest network validate() allows.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/net/omega_network.hh"
#include "sim/net/packet_network.hh"

namespace swcc
{
namespace
{

struct OmegaGolden
{
    unsigned stages;
    unsigned switchDim;
    NetMode mode;
    double meanThink;
    double messageCycles;
    std::uint64_t seed;
    std::uint64_t runCycles;

    std::uint64_t cycles;
    std::uint64_t attempts;
    std::uint64_t accepted;
    std::uint64_t transactions;
    double computeFraction;
    double acceptance;
    double throughputPerPort;
    std::vector<double> stageLoads;
};

const std::vector<OmegaGolden> kOmegaGolden = {
    {1, 2, NetMode::UnitRequest, 4, 3, 7, 4000,
     4000, 3723, 3138, 1046, 0x1.11ba5e353f7cfp-1, 0x1.af8c7af22dcbap-1,
     0x1.91a9fbe76c8b4p-2,
     {0x1.dc8b439581062p-2, 0x1.91a9fbe76c8b4p-2}},
    {1, 2, NetMode::Circuit, 4, 3, 7, 4000,
     4000, 1472, 1081, 1080, 0x1.177ced916872bp-1, 0x1.78p-1,
     0x1.14bc6a7ef9db2p-3,
     {0x1.78d4fdf3b645ap-3, 0x1.14bc6a7ef9db2p-3}},
    {4, 2, NetMode::UnitRequest, 10, 8, 11, 4000,
     4000, 39892, 19862, 2480, 0x1.81ba5e353f7cfp-2, 0x1.fdd801d922fccp-2,
     0x1.3dcac083126e9p-2,
     {0x1.3f22d0e560419p-1, 0x1.f7126e978d4fep-2, 0x1.a45e353f7ced9p-2,
      0x1.69db22d0e5604p-2, 0x1.3dcac083126e9p-2}},
    {4, 2, NetMode::Circuit, 10, 8, 11, 4000,
     4000, 16778, 2805, 2800, 0x1.b99999999999ap-2, 0x1.5664276d47415p-3,
     0x1.670a3d70a3d71p-5,
     {0x1.0c72b020c49bap-2, 0x1.7051eb851eb85p-3, 0x1.eea7ef9db22d1p-4,
      0x1.3df3b645a1cacp-4, 0x1.670a3d70a3d71p-5}},
    {6, 2, NetMode::UnitRequest, 20, 16, 13, 3000,
     3000, 131147, 49615, 3081, 0x1.448ca11bfd44fp-2, 0x1.836540ab06f28p-2,
     0x1.089d0369d036ap-2,
     {0x1.5db9af72015d8p-1, 0x1.0c8b439581062p-1, 0x1.b39c54a692173p-2,
      0x1.70237fa89e60fp-2, 0x1.4553f7ced9168p-2, 0x1.23e4b17e4b17ep-2,
      0x1.089d0369d036ap-2}},
    {6, 2, NetMode::Circuit, 20, 16, 13, 3000,
     3000, 61654, 3719, 3699, 0x1.8ea27983c131dp-2, 0x1.ee2540ea62354p-5,
     0x1.3d5acb6f46509p-6,
     {0x1.48d242e6bdc8p-2, 0x1.c27c3ece2a535p-3, 0x1.3671529a485cdp-3,
      0x1.a5a740da740dap-4, 0x1.1815d867c3ecep-4, 0x1.4ab596de8ca12p-5,
      0x1.3d5acb6f46509p-6}},
    {3, 4, NetMode::UnitRequest, 10, 10, 17, 3000,
     3000, 133620, 58334, 5807, 0x1.375c28f5c28f6p-2, 0x1.bf0b41f9ab808p-2,
     0x1.371d5acb6f465p-2,
     {0x1.6451eb851eb85p-1, 0x1.dd9db22d0e56p-2, 0x1.731d5acb6f465p-2,
      0x1.371d5acb6f465p-2}},
    {3, 4, NetMode::Circuit, 10, 10, 17, 3000,
     3000, 62611, 6857, 6831, 0x1.6996de8ca11cp-2, 0x1.c0956b3a2774dp-4,
     0x1.2490b9af72016p-5,
     {0x1.4dece2a53490cp-2, 0x1.628ca11bfd44fp-3, 0x1.6898ead65b7a3p-4,
      0x1.2490b9af72016p-5}},
    {1, 300, NetMode::UnitRequest, 30, 5, 19, 1000,
     1000, 49181, 42749, 8527, 0x1.ac107e441a52ep-1, 0x1.bd0a1d23994a3p-1,
     0x1.23d54ad8fa90ep-3,
     {0x1.4fbe06ef96b4ap-3, 0x1.23d54ad8fa90ep-3}},
    {1, 300, NetMode::Circuit, 30, 5, 19, 1000,
     1000, 12711, 8696, 8663, 0x1.af156191148fep-1, 0x1.5e4687c8bc598p-1,
     0x1.daeae4569de32p-6,
     {0x1.5b18548a9bcfdp-5, 0x1.daeae4569de32p-6}},
    {1, 65536, NetMode::UnitRequest, 30, 5, 53, 30,
     30, 766121, 486058, 92762, 0x1.387d444444444p-1, 0x1.44d55a47d204ap-1,
     0x1.fa4f777777777p-3,
     {0x1.8f05777777777p-2, 0x1.fa4f777777777p-3}},
    {1, 65536, NetMode::Circuit, 30, 5, 53, 30,
     30, 290558, 103183, 95529, 0x1.4dba222222222p-1, 0x1.6ba49db9747c4p-2,
     0x1.adedddddddddep-5,
     {0x1.2eaa222222222p-3, 0x1.adedddddddddep-5}},
};

TEST(NetGoldenTest, OmegaStatsMatchRecordedValues)
{
    for (const OmegaGolden &golden : kOmegaGolden) {
        SCOPED_TRACE(testing::Message()
                     << "k=" << golden.switchDim << " n=" << golden.stages
                     << (golden.mode == NetMode::Circuit ? " circuit"
                                                         : " unit"));
        OmegaConfig config;
        config.stages = golden.stages;
        config.switchDim = golden.switchDim;
        config.mode = golden.mode;
        config.meanThink = golden.meanThink;
        config.messageCycles = golden.messageCycles;
        config.seed = golden.seed;
        OmegaNetwork network(config);
        const OmegaStats stats = network.run(golden.runCycles);

        EXPECT_EQ(stats.cycles, golden.cycles);
        EXPECT_EQ(stats.attempts, golden.attempts);
        EXPECT_EQ(stats.accepted, golden.accepted);
        EXPECT_EQ(stats.transactions, golden.transactions);
        EXPECT_EQ(stats.computeFraction, golden.computeFraction);
        EXPECT_EQ(stats.acceptance, golden.acceptance);
        EXPECT_EQ(stats.throughputPerPort, golden.throughputPerPort);
        EXPECT_EQ(stats.stageLoads, golden.stageLoads);
    }
}

struct PacketGolden
{
    unsigned stages;
    double meanThink;
    unsigned requestWords;
    unsigned responseWords;
    unsigned bufferWords;
    std::uint64_t seed;
    std::uint64_t runCycles;

    std::uint64_t cycles;
    std::uint64_t transactions;
    double computeFraction;
    double meanLatency;
    double linkLoad;
    std::size_t maxQueueDepth;
    std::uint64_t backpressureStalls;
};

const std::vector<PacketGolden> kPacketGolden = {
    {1, 5, 1, 4, 0, 23, 4000,
     4000, 647, 0x1.a147ae147ae14p-2, 0x1.0a6f94608b46dp+3,
     0x1.4b4395810624ep-2, 2, 0},
    {4, 15, 1, 4, 0, 29, 4000,
     4000, 2225, 0x1.08dd2f1a9fbe7p-1, 0x1.db70debfaf002p+3,
     0x1.1cfbe76c8b439p-3, 7, 0},
    {4, 8, 2, 4, 2, 31, 4000,
     4000, 2737, 0x1.61a1cac083127p-2, 0x1.04a14041d8e73p+4,
     0x1.5e83126e978d5p-3, 2, 1172},
    {6, 12, 1, 4, 0, 37, 2000,
     2000, 4249, 0x1.8d9ba5e353f7dp-2, 0x1.357d7fe8dd3c7p+4,
     0x1.106c8b439581p-3, 9, 0},
    {6, 10, 1, 0, 1, 41, 2000,
     2000, 11781, 0x1.cfcbc6a7ef9dbp-1, 0x1.05ddf89180e15p+0,
     0x1.7857619f0fb39p-4, 1, 1888},
    {6, 6, 3, 2, 3, 43, 2000,
     2000, 5247, 0x1.f70e560418937p-3, 0x1.350d83c7fd449p+4,
     0x1.fb0cf87d9c54ap-4, 3, 432},
};

TEST(NetGoldenTest, PacketStatsMatchRecordedValues)
{
    for (const PacketGolden &golden : kPacketGolden) {
        SCOPED_TRACE(testing::Message()
                     << "n=" << golden.stages << " think="
                     << golden.meanThink << " buffer="
                     << golden.bufferWords);
        PacketNetConfig config;
        config.stages = golden.stages;
        config.meanThink = golden.meanThink;
        config.requestWords = golden.requestWords;
        config.responseWords = golden.responseWords;
        config.bufferWords = golden.bufferWords;
        config.seed = golden.seed;
        PacketOmegaNetwork network(config);
        const PacketNetStats stats = network.run(golden.runCycles);

        EXPECT_EQ(stats.cycles, golden.cycles);
        EXPECT_EQ(stats.transactions, golden.transactions);
        EXPECT_EQ(stats.computeFraction, golden.computeFraction);
        EXPECT_EQ(stats.meanLatency, golden.meanLatency);
        EXPECT_EQ(stats.linkLoad, golden.linkLoad);
        EXPECT_EQ(stats.maxQueueDepth, golden.maxQueueDepth);
        EXPECT_EQ(stats.backpressureStalls, golden.backpressureStalls);
    }
}

} // namespace
} // namespace swcc
