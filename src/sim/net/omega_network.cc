#include "sim/net/omega_network.hh"

#include <stdexcept>

namespace swcc
{

namespace
{

std::uint32_t
portCount(const OmegaConfig &config)
{
    std::uint64_t ports = 1;
    for (unsigned i = 0; i < config.stages; ++i) {
        ports *= config.switchDim;
    }
    if (ports > (1u << 16)) {
        throw std::invalid_argument("network too large (> 64K ports)");
    }
    return static_cast<std::uint32_t>(ports);
}

} // namespace

void
OmegaConfig::validate() const
{
    if (stages == 0 || stages > 16) {
        throw std::invalid_argument("stages must be in [1, 16]");
    }
    if (switchDim < 2) {
        throw std::invalid_argument("switch dimension must be >= 2");
    }
    if (meanThink < 0.0) {
        throw std::invalid_argument("meanThink must be >= 0");
    }
    if (messageCycles < 1.0) {
        throw std::invalid_argument("messageCycles must be >= 1");
    }
    portCount(*this);
}

OmegaNetwork::OmegaNetwork(const OmegaConfig &config)
    : config_(config), ports_(portCount(config)), rng_(config.seed)
{
    config_.validate();
    sources_.reserve(ports_);
    for (std::uint32_t i = 0; i < ports_; ++i) {
        sources_.emplace_back(config_.meanThink, config_.messageCycles,
                              ports_);
    }

    // Routing tables. The k-ary perfect shuffle rotates the top digit
    // of the port number to the bottom; the destination digit of
    // weight dim^(n-1-stage) then picks the switch output.
    const unsigned n = config_.stages;
    const std::uint32_t dim = config_.switchDim;
    const std::uint32_t rotate_div = ports_ / dim; // dim^(n-1)
    shuffleBase_.resize(ports_);
    for (std::uint32_t pos = 0; pos < ports_; ++pos) {
        const std::uint32_t shuffled =
            (pos % rotate_div) * dim + pos / rotate_div;
        shuffleBase_[pos] = shuffled / dim * dim;
    }
    digit_.resize(std::size_t{n} * ports_);
    std::uint32_t digit_div = rotate_div;
    for (unsigned stage = 0; stage < n; ++stage) {
        for (std::uint32_t dest = 0; dest < ports_; ++dest) {
            digit_[std::size_t{stage} * ports_ + dest] =
                dest / digit_div % dim;
        }
        digit_div /= dim;
    }
    invContenders_.resize(std::size_t{dim} + 1);
    for (std::uint32_t i = 1; i <= dim; ++i) {
        invContenders_[i] = 1.0 / static_cast<double>(i);
    }

    attempts_.resize(ports_);
    slots_.resize(2 * std::size_t{ports_});
    completed_.assign(ports_, 0);
    if (config_.mode == NetMode::Circuit) {
        portFreeAt_.assign(std::size_t{n} * ports_, 0.0);
    }
    stageOffered_.assign(n, 0);
}

std::size_t
OmegaNetwork::route(std::size_t live)
{
    const unsigned n = config_.stages;
    const bool circuit = config_.mode == NetMode::Circuit;

    // Stage s arbitrates in half s % 2 of slots_. Its pass also frees
    // the ports the stage s-1 survivors hold in the other half and
    // compacts the list, so dropping losers costs no extra pass.
    for (unsigned stage = 0; stage < n; ++stage) {
        PortSlot *slots = &slots_[(stage & 1u) * ports_];
        PortSlot *held = &slots_[(~stage & 1u) * ports_];
        const std::uint32_t *digit = &digit_[std::size_t{stage} * ports_];
        const double *free_at =
            circuit ? &portFreeAt_[std::size_t{stage} * ports_] : nullptr;

        std::uint64_t offered = 0;
        std::size_t kept = 0;
        for (std::size_t k = 0; k < live; ++k) {
            Attempt att = attempts_[k];
            if (!att.alive) {
                continue;
            }
            ++offered;
            held[att.pos].contenders = 0;
            const std::uint32_t port = shuffleBase_[att.pos] + digit[att.dest];
            if (circuit && free_at[port] > now_) {
                continue;
            }

            // Up to dim inputs of one switch may want this output: the
            // i-th contender replaces the incumbent with probability
            // 1/i, making the final survivor uniform (reservoir of
            // size one).
            PortSlot &slot = slots[port];
            const std::uint32_t count = ++slot.contenders;
            if (count > 1) {
                if (!rng_.chance(invContenders_[count])) {
                    continue;
                }
                attempts_[slot.winner].alive = false;
            }
            slot.winner = static_cast<std::uint32_t>(kept);
            att.pos = port;
            attempts_[kept++] = att;
        }
        stageOffered_[stage] += offered;
        live = kept;
    }

    // Drop the last stage's displaced winners and free its ports.
    PortSlot *held = &slots_[((n - 1) & 1u) * ports_];
    std::size_t accepted = 0;
    for (std::size_t k = 0; k < live; ++k) {
        const Attempt att = attempts_[k];
        if (att.alive) {
            held[att.pos].contenders = 0;
            attempts_[accepted++] = att;
        }
    }

    if (circuit) {
        // Winners claim every output port along their path for the
        // whole message duration.
        const double until = now_ + config_.messageCycles;
        for (std::size_t k = 0; k < accepted; ++k) {
            std::uint32_t pos = attempts_[k].source;
            const std::uint32_t dest = attempts_[k].dest;
            for (unsigned stage = 0; stage < n; ++stage) {
                const std::size_t row = std::size_t{stage} * ports_;
                pos = shuffleBase_[pos] + digit_[row + dest];
                portFreeAt_[row + pos] = until;
            }
        }
    }
    return accepted;
}

void
OmegaNetwork::stepCycle()
{
    std::size_t live = 0;
    for (std::uint32_t i = 0; i < ports_; ++i) {
        NetSource &source = sources_[i];
        source.countCycle();
        if (source.state() == NetSource::State::Requesting) {
            attempts_[live++] = {i, source.dest(), i, true};
        }
    }

    totalAttempts_ += live;
    const std::size_t accepted = route(live);
    totalAccepted_ += accepted;

    // A source whose transaction completes this cycle must not also
    // consume a think cycle now; its thinking starts next cycle.
    for (std::size_t k = 0; k < accepted; ++k) {
        const std::uint32_t src = attempts_[k].source;
        if (config_.mode == NetMode::UnitRequest) {
            sources_[src].unitAccepted(rng_);
            if (sources_[src].state() == NetSource::State::Thinking) {
                completed_[src] = 1;
            }
        } else {
            // The setup cycle is the first held cycle, so the new
            // holder ticks normally below.
            sources_[src].startHolding(config_.messageCycles);
        }
    }

    for (std::uint32_t i = 0; i < ports_; ++i) {
        NetSource &source = sources_[i];
        if (source.state() != NetSource::State::Requesting &&
            completed_[i] == 0) {
            source.tick(rng_);
        }
    }
    for (std::size_t k = 0; k < accepted; ++k) {
        completed_[attempts_[k].source] = 0;
    }

    now_ += 1.0;
}

OmegaStats
OmegaNetwork::run(std::uint64_t cycles)
{
    for (std::uint64_t c = 0; c < cycles; ++c) {
        stepCycle();
    }
    cyclesRun_ += cycles;

    OmegaStats stats;
    stats.cycles = cyclesRun_;
    stats.attempts = totalAttempts_;
    stats.accepted = totalAccepted_;

    std::uint64_t think = 0;
    std::uint64_t total = 0;
    for (const NetSource &source : sources_) {
        think += source.thinkCycles();
        total += source.thinkCycles() + source.requestCycles() +
            source.holdCycles();
        stats.transactions += source.transactions();
    }
    stats.computeFraction = total > 0
        ? static_cast<double>(think) / static_cast<double>(total)
        : 0.0;
    stats.acceptance = totalAttempts_ > 0
        ? static_cast<double>(totalAccepted_) /
            static_cast<double>(totalAttempts_)
        : 1.0;

    const double port_cycles =
        static_cast<double>(cyclesRun_) * static_cast<double>(ports_);
    stats.stageLoads.reserve(config_.stages + 1);
    for (unsigned stage = 0; stage < config_.stages; ++stage) {
        stats.stageLoads.push_back(
            static_cast<double>(stageOffered_[stage]) / port_cycles);
    }
    stats.stageLoads.push_back(
        static_cast<double>(totalAccepted_) / port_cycles);
    stats.throughputPerPort =
        static_cast<double>(totalAccepted_) / port_cycles;
    return stats;
}

} // namespace swcc
