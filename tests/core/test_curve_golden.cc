/**
 * @file
 * Golden curves for the analytical curve solvers.
 *
 * Pins every field of evaluateNetworkCurve() (Base, No-Cache and
 * Software-Flush at the low and high Table 7 parameter sets, stages
 * 1..24) and of solveBusCurve() (1..1024 processors at two costs),
 * bit for bit. Each curve is pinned by a 64-bit FNV-1a digest over the
 * bit pattern of every field of every point, plus hexfloat literals
 * of its headline field at three points; a digest mismatch prints the
 * whole curve as hexfloats so the moved field can be diffed.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/bus_model.hh"
#include "core/network_model.hh"
#include "core/scheme_evaluator.hh"
#include "core/solver_cache.hh"
#include "core/workload.hh"

namespace swcc
{
namespace
{

std::string
hex(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%a", value);
    return buf;
}

std::vector<double>
fields(const NetworkSolution &s)
{
    return {s.cpu,
            s.network,
            s.transactionRate,
            s.unitRequestRate,
            s.computeFraction,
            s.inputLoad,
            s.acceptance,
            s.cyclesPerInstruction,
            s.waiting,
            s.processorUtilization,
            s.processingPower};
}

std::vector<double>
fields(const BusSolution &s)
{
    return {s.cpu,
            s.bus,
            s.waiting,
            s.busUtilization,
            s.busQueueLength,
            s.processorUtilization,
            s.processingPower};
}

/** One line per point: its size fields, then every double as %a. */
template <typename Solution>
std::string
render(const std::vector<Solution> &curve)
{
    std::string out;
    for (const Solution &s : curve) {
        out += std::to_string(s.processors);
        for (double f : fields(s)) {
            out += ' ' + hex(f);
        }
        out += '\n';
    }
    return out;
}

/**
 * FNV-1a over the bit patterns of every point's processor count and
 * double fields (the stage count is implied by the processor count).
 */
template <typename Solution>
std::uint64_t
digest(const std::vector<Solution> &curve)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    const auto add = [&hash](std::uint64_t bits) {
        for (int i = 0; i < 8; ++i) {
            hash ^= (bits >> (8 * i)) & 0xff;
            hash *= 0x100000001b3ull;
        }
    };
    for (const Solution &s : curve) {
        add(s.processors);
        for (double f : fields(s)) {
            std::uint64_t bits;
            std::memcpy(&bits, &f, sizeof bits);
            add(bits);
        }
    }
    return hash;
}

struct NetworkGolden
{
    Scheme scheme;
    Level level;
    std::uint64_t digest;
    /** computeFraction at stages 1, 12 and 24. */
    double u1, u12, u24;
};

const NetworkGolden kNetworkGolden[] = {
    {Scheme::Base, Level::Low, 0x5a073b63ff7adfcbull, 0x1.f6b4ed61f35p-1,
     0x1.d944ea35e2fp-1, 0x1.8f91ecd0013p-1},
    {Scheme::Base, Level::High, 0xefbb79811da53b2full, 0x1.c8402258f29p-1,
     0x1.f2f2ce03ef2p-2, 0x1.7e4d839d664p-3},
    {Scheme::NoCache, Level::Low, 0x6cb02996ced6be16ull,
     0x1.d2fc9027ac3p-1, 0x1.a7b32de40fap-2, 0x1.2584584a3fcp-3},
    {Scheme::NoCache, Level::High, 0xb67ceac8fa51156bull,
     0x1.1b2009d9405p-1, 0x1.cf484e41d9p-5, 0x1.2011970ecap-6},
    {Scheme::SoftwareFlush, Level::Low, 0x59949c509f7a94deull,
     0x1.f47881907c9p-1, 0x1.cde22e9fc2dp-1, 0x1.655a53e5fcbp-1},
    {Scheme::SoftwareFlush, Level::High, 0x4e9bd74a609e9c1full,
     0x1.b91c74e40c2p-2, 0x1.a726c758b3p-5, 0x1.13817c1e16p-6},
};

TEST(CurveGoldenTest, NetworkCurvesMatchTheRecordedBits)
{
    setSolverCacheEnabled(false);
    for (const NetworkGolden &g : kNetworkGolden) {
        const std::vector<NetworkSolution> curve =
            evaluateNetworkCurve(g.scheme, paramsAtLevel(g.level), 24);
        ASSERT_EQ(curve.size(), 24u);
        EXPECT_EQ(hex(curve[0].computeFraction), hex(g.u1));
        EXPECT_EQ(hex(curve[11].computeFraction), hex(g.u12));
        EXPECT_EQ(hex(curve[23].computeFraction), hex(g.u24));
        EXPECT_EQ(digest(curve), g.digest)
            << schemeName(g.scheme) << '/' << levelName(g.level)
            << ":\n"
            << render(curve);
    }
    setSolverCacheEnabled(true);
}

struct BusGolden
{
    PerInstructionCost cost;
    std::uint64_t digest;
    /** processingPower at 1, 64 and 1024 processors. */
    double p1, p64, p1024;
};

const BusGolden kBusGolden[] = {
    {{4.0, 0.75}, 0xae11712ecd2f6404ull, 0x1p-2, 0x1.5555555555555p+0,
     0x1.5555555555555p+0},
    {{2.5, 0.02}, 0x7e27c3d498e99a0dull, 0x1.999999999999ap-2,
     0x1.9670c253c6231p+4, 0x1.9p+5},
};

TEST(CurveGoldenTest, BusCurvesMatchTheRecordedBits)
{
    for (const BusGolden &g : kBusGolden) {
        const std::vector<BusSolution> curve = solveBusCurve(g.cost, 1024);
        ASSERT_EQ(curve.size(), 1024u);
        EXPECT_EQ(hex(curve[0].processingPower), hex(g.p1));
        EXPECT_EQ(hex(curve[63].processingPower), hex(g.p64));
        EXPECT_EQ(hex(curve[1023].processingPower), hex(g.p1024));
        EXPECT_EQ(digest(curve), g.digest)
            << "c=" << g.cost.cpu << " b=" << g.cost.channel << ":\n"
            << render(curve);
    }
}

} // namespace
} // namespace swcc
