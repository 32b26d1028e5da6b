/**
 * @file
 * Unit tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "sim/synth/rng.hh"

namespace swcc
{
namespace
{

TEST(RngTest, SameSeedSameStream)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(RngTest, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next()) {
            ++same;
        }
    }
    EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformStaysInHalfOpenUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(RngTest, UniformMeanIsHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        sum += rng.uniform();
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, BelowRespectsBound)
{
    Rng rng(3);
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
        for (int i = 0; i < 1000; ++i) {
            EXPECT_LT(rng.below(bound), bound);
        }
    }
    EXPECT_THROW(rng.below(0), std::invalid_argument);
}

TEST(RngTest, BelowCoversTheRange)
{
    Rng rng(5);
    std::array<int, 8> counts{};
    for (int i = 0; i < 8000; ++i) {
        ++counts[rng.below(8)];
    }
    for (int c : counts) {
        EXPECT_GT(c, 800);
        EXPECT_LT(c, 1200);
    }
}

TEST(RngTest, BetweenIsInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t v = rng.between(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo = saw_lo || v == 3;
        saw_hi = saw_hi || v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
    EXPECT_THROW(rng.between(5, 3), std::invalid_argument);
}

TEST(RngTest, ChanceHandlesDegenerateProbabilities)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
        EXPECT_FALSE(rng.chance(-0.5));
        EXPECT_TRUE(rng.chance(1.5));
    }
}

TEST(RngTest, ChanceMatchesProbability)
{
    Rng rng(17);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        hits += rng.chance(0.3) ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, GeometricMeanIsOneOverP)
{
    Rng rng(19);
    for (double p : {0.5, 0.1, 0.02}) {
        double sum = 0.0;
        const int n = 50000;
        for (int i = 0; i < n; ++i) {
            sum += static_cast<double>(rng.geometric(p));
        }
        EXPECT_NEAR(sum / n, 1.0 / p, 0.05 / p) << "p=" << p;
    }
}

TEST(RngTest, GeometricSupportStartsAtOne)
{
    Rng rng(23);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_GE(rng.geometric(0.9), 1u);
    }
    EXPECT_EQ(rng.geometric(1.0), 1u);
    EXPECT_THROW(rng.geometric(0.0), std::invalid_argument);
    EXPECT_THROW(rng.geometric(1.5), std::invalid_argument);
}

TEST(RngTest, ZipfStaysInRangeAndSkews)
{
    Rng rng(29);
    const std::uint64_t n = 100;
    std::uint64_t low_half = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) {
        const std::uint64_t v = rng.zipf(n, 1.0);
        EXPECT_LT(v, n);
        low_half += v < n / 2 ? 1 : 0;
    }
    // With positive skew, the lower ranks get well over half the mass.
    EXPECT_GT(static_cast<double>(low_half) / trials, 0.6);
    EXPECT_THROW(rng.zipf(0, 1.0), std::invalid_argument);
}

TEST(RngTest, SplitIsDeterministicPerIndex)
{
    const Rng parent(42);
    Rng a = parent.split(3);
    Rng b = parent.split(3);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(RngTest, SplitStreamsAreDecorrelated)
{
    const Rng parent(42);
    // Adjacent cell indices, and the parent itself, must all diverge.
    Rng streams[3] = {parent.split(0), parent.split(1), Rng(42)};
    int collisions = 0;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t a = streams[0].next();
        const std::uint64_t b = streams[1].next();
        const std::uint64_t c = streams[2].next();
        collisions += (a == b || a == c || b == c) ? 1 : 0;
    }
    EXPECT_EQ(collisions, 0);
}

TEST(RngTest, SplitDoesNotAdvanceTheParent)
{
    Rng with_split(7);
    Rng plain(7);
    (void)with_split.split(5);
    (void)with_split.split(6);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(with_split.next(), plain.next());
    }
}

TEST(RngTest, SplitDependsOnParentState)
{
    // Streams derived from different parents must differ too.
    Rng a = Rng(1).split(0);
    Rng b = Rng(2).split(0);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        same += a.next() == b.next() ? 1 : 0;
    }
    EXPECT_EQ(same, 0);
}

TEST(RngTest, ZipfZeroSkewIsUniform)
{
    Rng rng(31);
    std::uint64_t low_half = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) {
        low_half += rng.zipf(100, 0.0) < 50 ? 1u : 0u;
    }
    EXPECT_NEAR(static_cast<double>(low_half) / trials, 0.5, 0.02);
}

/** First 16 outputs of each generator function from a fresh Rng(seed). */
struct KnownAnswers
{
    std::uint64_t seed;
    std::array<std::uint64_t, 16> next;
    std::array<double, 16> uniform;
    /** below(1000). */
    std::array<std::uint64_t, 16> below;
    /** below(0xc000000000000001): about a quarter of draws rejected. */
    std::array<std::uint64_t, 16> belowWide;
    /** chance(0.3). */
    std::array<bool, 16> chance;
    /** geometric(0.1). */
    std::array<std::uint64_t, 16> geometric;
};

const KnownAnswers kKnownAnswers[] = {
    {1989,
     {0x847d5cd33f498978ull, 0x1cafeb2780a19badull, 0xdf96ef05f0ce8c22ull,
      0x0f71809dc33ae1e9ull, 0x85d558884ee14fc6ull, 0xfc34eee64105208bull,
      0x675e4b451f7f4117ull, 0x3992550dd5bb7596ull, 0xba24a432ecd27523ull,
      0x40abb2e0d939ea36ull, 0xbaf7ab9afd21083cull, 0x8072af282251b443ull,
      0xabfed9fd7176ee99ull, 0xb30e83a533499063ull, 0xc6392740a6f46524ull,
      0x7dc65d86c35f9ea7ull},
     {0x1.08fab9a67e931p-1, 0x1.cafeb2780a198p-4, 0x1.bf2dde0be19d1p-1,
      0x1.ee3013b8675cp-5, 0x1.0baab1109dc29p-1, 0x1.f869ddcc820a4p-1,
      0x1.9d792d147dfdp-2, 0x1.cc92a86eaddb8p-3, 0x1.74494865d9a4ep-1,
      0x1.02aecb8364e7ap-2, 0x1.75ef5735fa421p-1, 0x1.00e55e5044a36p-1,
      0x1.57fdb3fae2eddp-1, 0x1.661d074a66932p-1, 0x1.8c724e814de8cp-1,
      0x1.f719761b0d7e6p-2},
     {328, 709, 202, 9, 630, 803, 127, 278, 299, 894, 852, 139, 697, 331,
      460, 375},
     {9546888847464958328ull, 2276269470476307489ull, 9643711519545970630ull,
      4338355013765374090ull, 7448473593970639127ull,
      13413026128844715299ull, 4660014918231779894ull,
      13472425492462241852ull, 9255652771109123139ull,
      12393582907123756697ull, 12902394728016351331ull,
      448432796532499747ull, 9063034133514526375ull, 8567203088956504692ull,
      9140211568675799824ull, 12156523488265617163ull},
     {false, true, false, true, false, false, false, true, false, true,
      false, false, false, false, false, false},
     {7, 2, 20, 1, 8, 40, 5, 3, 13, 3, 13, 7, 11, 12, 15, 7}},
    {0x5eed5eed5eed5eedull,
     {0x5530c1deb89725efull, 0xa9faa1c0e3770917ull, 0xeba5395d5d10a6f0ull,
      0x33a8dbb7a385d6cbull, 0xef3b4c17646a9954ull, 0x338137c3981f661dull,
      0xbe5eb01e9c6a22b7ull, 0xf4ce70d2a8000053ull, 0x9eca2f6e4ece1929ull,
      0xd618393742d16f04ull, 0xb4e682f9f27624b0ull, 0x88a43006ad5005f5ull,
      0x3d21465b861ccb22ull, 0x7755ac680fe74015ull, 0x4e14f2ffc72c76fbull,
      0x24823e1a70b0b517ull},
     {0x1.54c3077ae25c8p-2, 0x1.53f54381c6ee1p-1, 0x1.d74a72baba214p-1,
      0x1.9d46ddbd1c2e8p-3, 0x1.de76982ec8d53p-1, 0x1.9c09be1cc0fbp-3,
      0x1.7cbd603d38d44p-1, 0x1.e99ce1a55p-1, 0x1.3d945edc9d9c3p-1,
      0x1.ac30726e85a2dp-1, 0x1.69cd05f3e4ec4p-1, 0x1.1148600d5aap-1,
      0x1.e90a32dc30e64p-3, 0x1.dd56b1a03f9dp-2, 0x1.3853cbff1cb1cp-2,
      0x1.2411f0d385858p-3},
     {919, 95, 360, 539, 860, 349, 359, 963, 137, 260, 856, 677, 954, 861,
      427, 671},
     {6138619454429799919ull, 12248279986409507095ull,
      3144982987944273647ull, 3403397606761208147ull,
      13717595160536818359ull, 3805102785238663250ull,
      11442009954103204137ull, 1592085377782476547ull,
      13035250181496775856ull, 9846047490574386677ull,
      8598968626477219861ull, 5626389014864754427ull,
      3413565338141853532ull, 2458728746439676909ull,
      13228291921371115338ull, 244004816964102571ull},
     {false, false, false, true, false, true, false, false, false, false,
      false, false, true, false, false, true},
     {4, 11, 25, 3, 26, 3, 13, 30, 10, 18, 12, 8, 3, 6, 4, 2}},
};

TEST(RngTest, KnownAnswers)
{
    for (const KnownAnswers &expected : kKnownAnswers) {
        SCOPED_TRACE(testing::Message() << "seed " << expected.seed);
        Rng next(expected.seed), uniform(expected.seed),
            below(expected.seed), below_wide(expected.seed),
            chance(expected.seed), geometric(expected.seed);
        for (std::size_t i = 0; i < 16; ++i) {
            SCOPED_TRACE(testing::Message() << "draw " << i);
            EXPECT_EQ(next.next(), expected.next[i]);
            EXPECT_EQ(uniform.uniform(), expected.uniform[i]);
            EXPECT_EQ(below.below(1000), expected.below[i]);
            EXPECT_EQ(below_wide.below(0xc000000000000001ull),
                      expected.belowWide[i]);
            EXPECT_EQ(chance.chance(0.3), expected.chance[i]);
            EXPECT_EQ(geometric.geometric(0.1), expected.geometric[i]);
        }
    }
}

} // namespace
} // namespace swcc
