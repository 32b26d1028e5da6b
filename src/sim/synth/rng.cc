#include "sim/synth/rng.hh"

#include <cmath>
#include <stdexcept>

namespace swcc
{

namespace
{

std::uint64_t
splitMix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (std::uint64_t &word : state_) {
        word = splitMix64(sm);
    }
}

Rng
Rng::split(std::uint64_t index) const
{
    // Fold the full parent state and the cell index through SplitMix64
    // (via the seeding constructor). Adjacent indices land in unrelated
    // regions of the seed space, and the parent keeps its own stream.
    std::uint64_t mix = state_[0];
    mix ^= rotl(state_[1], 13) ^ rotl(state_[2], 29) ^ rotl(state_[3], 43);
    mix += 0x9e3779b97f4a7c15ull * (index + 1);
    return Rng(mix);
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    if (bound == 0) {
        throw std::invalid_argument("Rng::below needs a positive bound");
    }
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        const std::uint64_t value = next();
        if (value >= threshold) {
            return value % bound;
        }
    }
}

std::uint64_t
Rng::between(std::uint64_t lo, std::uint64_t hi)
{
    if (hi < lo) {
        throw std::invalid_argument("Rng::between needs lo <= hi");
    }
    return lo + below(hi - lo + 1);
}

std::uint64_t
Rng::geometric(double p)
{
    if (!(p > 0.0 && p <= 1.0)) {
        throw std::invalid_argument(
            "geometric success probability must be in (0, 1]");
    }
    if (p == 1.0) {
        return 1;
    }
    const double u = uniform();
    const double trials =
        std::floor(std::log1p(-u) / std::log1p(-p)) + 1.0;
    return trials < 1.0 ? 1 : static_cast<std::uint64_t>(trials);
}

std::uint64_t
Rng::zipf(std::uint64_t n, double s)
{
    if (n == 0) {
        throw std::invalid_argument("Rng::zipf needs a positive range");
    }
    if (s <= 0.0) {
        return below(n);
    }
    // Map a uniform through x -> x^(1+s): low ranks become popular.
    const double u = uniform();
    const double skewed = std::pow(u, 1.0 + s);
    auto rank = static_cast<std::uint64_t>(
        skewed * static_cast<double>(n));
    return rank >= n ? n - 1 : rank;
}

} // namespace swcc
