/**
 * @file
 * Deterministic pseudo-random number generator for the synthetic
 * workload generator and the network simulator.
 *
 * xoshiro256** seeded through SplitMix64: fast, high quality, and
 * byte-for-byte reproducible across platforms (unlike the standard
 * library distributions, whose outputs are implementation-defined).
 */

#ifndef SWCC_SIM_SYNTH_RNG_HH
#define SWCC_SIM_SYNTH_RNG_HH

#include <array>
#include <cstdint>

namespace swcc
{

/**
 * xoshiro256** pseudo-random generator with distribution helpers.
 */
class Rng
{
  public:
    /** Seeds the state deterministically from @p seed via SplitMix64. */
    explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedull);

    /** Next raw 64-bit output. */
    std::uint64_t next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /**
     * Derived independent stream for cell @p index; the parent's state
     * is not advanced. Sibling streams (`split(0)`, `split(1)`, ...)
     * are decorrelated regardless of index spacing, which is what lets
     * parallel experiment grids seed one generator per cell and stay
     * bit-identical to a serial sweep (see core/parallel.hh).
     */
    Rng split(std::uint64_t index) const;

    /** Uniform double in [0, 1) from 53 random mantissa bits. */
    double uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound) ; bound must be positive. */
    std::uint64_t below(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t between(std::uint64_t lo, std::uint64_t hi);

    /**
     * Bernoulli trial with success probability @p p. Draws nothing
     * when the outcome is certain (p <= 0 or p >= 1).
     */
    bool chance(double p)
    {
        if (p <= 0.0) {
            return false;
        }
        if (p >= 1.0) {
            return true;
        }
        return uniform() < p;
    }

    /**
     * Geometric number of trials until first success (support {1, 2,
     * ...}), success probability @p p in (0, 1]. Mean 1/p.
     */
    std::uint64_t geometric(double p);

    /**
     * Zipf-like rank in [0, n) with exponent @p s (s = 0 is uniform).
     * Used for skewed block popularity; implemented by inverse-CDF
     * over precomputed weights is avoided — this uses the rejection
     *-free approximation via the power of a uniform, adequate for
     * workload shaping.
     */
    std::uint64_t zipf(std::uint64_t n, double s);

  private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_;
};

} // namespace swcc

#endif // SWCC_SIM_SYNTH_RNG_HH
