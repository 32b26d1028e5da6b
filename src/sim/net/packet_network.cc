#include "sim/net/packet_network.hh"

#include <algorithm>
#include <stdexcept>

namespace swcc
{

void
PacketNetConfig::validate() const
{
    if (stages == 0 || stages > 14) {
        throw std::invalid_argument("stages must be in [1, 14]");
    }
    if (meanThink < 0.0) {
        throw std::invalid_argument("meanThink must be >= 0");
    }
    if (requestWords == 0) {
        throw std::invalid_argument(
            "a transaction needs at least one request word");
    }
}

PacketOmegaNetwork::PacketOmegaNetwork(const PacketNetConfig &config)
    : config_(config), ports_(1u << config.stages), rng_(config.seed)
{
    config_.validate();
    for (Fabric *fabric : {&forward_, &backward_}) {
        fabric->queues.assign(
            config_.stages,
            std::vector<std::deque<Word>>(ports_));
    }
    sources_.resize(ports_);
    memories_.resize(ports_);
    for (Memory &memory : memories_) {
        memory.received.assign(ports_, 0);
    }
    // Desynchronise initial thinking.
    for (Source &source : sources_) {
        source.thinkLeft = static_cast<double>(
            rng_.below(static_cast<std::uint64_t>(
                           std::max(1.0, config_.meanThink)) + 1));
    }
}

std::uint32_t
PacketOmegaNetwork::entryPort(std::uint32_t input, std::uint32_t target,
                              unsigned stage) const
{
    const unsigned n = config_.stages;
    const std::uint32_t mask = ports_ - 1;
    const std::uint32_t shuffled = n == 1
        ? input
        : ((input << 1) | (input >> (n - 1))) & mask;
    const std::uint32_t out_bit = (target >> (n - 1 - stage)) & 1u;
    return (shuffled & ~1u) | out_bit;
}

void
PacketOmegaNetwork::deliver(const Word &word, bool toward_memory)
{
    if (toward_memory) {
        Memory &memory = memories_[word.target];
        unsigned &count = memory.received[word.source];
        if (++count == config_.requestWords) {
            count = 0;
            if (config_.responseWords > 0) {
                memory.pending.push_back(
                    {now_ + config_.memoryCycles, word.source});
            }
        }
        return;
    }

    Source &source = sources_[word.target];
    if (source.state != Source::State::WaitingResponse ||
        source.responseWordsLeft == 0) {
        throw std::logic_error("response delivered to an idle source");
    }
    if (--source.responseWordsLeft == 0) {
        ++source.transactions;
        source.latencySum = source.latencySum +
            (now_ - source.transactionStart + 1.0);
        source.state = Source::State::Thinking;
        source.thinkLeft = config_.meanThink <= 0.0
            ? 0.0
            : static_cast<double>(rng_.geometric(
                  std::min(1.0, 1.0 / config_.meanThink)));
    }
}

bool
PacketOmegaNetwork::hasRoom(const std::deque<Word> &queue) const
{
    return config_.bufferWords == 0 ||
        queue.size() < config_.bufferWords;
}

void
PacketOmegaNetwork::advanceFabric(Fabric &fabric, bool toward_memory)
{
    const unsigned n = config_.stages;
    // Serve the last stage first so a word advances one stage per
    // cycle; each output link forwards one word per cycle. With the
    // last stage served first, a full queue that drains this cycle can
    // accept this cycle's arrival, like a real flow-controlled link.
    for (unsigned stage = n; stage-- > 0;) {
        auto &row = fabric.queues[stage];
        for (std::uint32_t port = 0; port < ports_; ++port) {
            auto &queue = row[port];
            if (queue.empty()) {
                continue;
            }
            const Word word = queue.front();
            if (stage + 1 == n) {
                queue.pop_front();
                if (toward_memory) {
                    ++wordCyclesForward_;
                } else {
                    ++wordCyclesBackward_;
                }
                deliver(word, toward_memory);
                continue;
            }
            auto &next = fabric.queues[stage + 1]
                [entryPort(port, word.target, stage + 1)];
            if (!hasRoom(next)) {
                ++backpressureStalls_;
                continue;
            }
            queue.pop_front();
            if (toward_memory) {
                ++wordCyclesForward_;
            } else {
                ++wordCyclesBackward_;
            }
            next.push_back(word);
            maxQueueDepth_ = std::max(maxQueueDepth_, next.size());
        }
    }
}

void
PacketOmegaNetwork::stepCycle()
{
    advanceFabric(forward_, true);
    advanceFabric(backward_, false);

    // Memory modules inject at most one response word per cycle.
    for (std::uint32_t id = 0; id < ports_; ++id) {
        Memory &memory = memories_[id];
        if (memory.injectLeft == 0 && !memory.pending.empty() &&
            memory.pending.front().first <= now_) {
            memory.injectTarget = memory.pending.front().second;
            memory.pending.pop_front();
            memory.injectLeft = config_.responseWords;
        }
        if (memory.injectLeft > 0) {
            Word word;
            word.target = memory.injectTarget;
            word.source = id;
            word.last = memory.injectLeft == 1;
            auto &queue = backward_.queues[0]
                [entryPort(id, word.target, 0)];
            if (!hasRoom(queue)) {
                ++backpressureStalls_;
            } else {
                queue.push_back(word);
                maxQueueDepth_ =
                    std::max(maxQueueDepth_, queue.size());
                --memory.injectLeft;
            }
        }
    }

    // Sources: think, inject, or block on the response.
    for (std::uint32_t id = 0; id < ports_; ++id) {
        Source &source = sources_[id];
        switch (source.state) {
          case Source::State::Thinking:
            ++source.thinkCycles;
            source.thinkLeft -= 1.0;
            if (source.thinkLeft <= 0.0) {
                source.state = Source::State::Injecting;
                source.dest =
                    static_cast<std::uint32_t>(rng_.below(ports_));
                source.wordsToInject = config_.requestWords;
                source.responseWordsLeft = config_.responseWords;
                source.transactionStart = now_ + 1.0;
            }
            break;
          case Source::State::Injecting: {
            ++source.blockedCycles;
            Word word;
            word.target = source.dest;
            word.source = id;
            word.last = source.wordsToInject == 1;
            auto &queue = forward_.queues[0]
                [entryPort(id, source.dest, 0)];
            if (!hasRoom(queue)) {
                // Entry link busy: retry next cycle.
                ++backpressureStalls_;
                break;
            }
            queue.push_back(word);
            maxQueueDepth_ = std::max(maxQueueDepth_, queue.size());
            if (--source.wordsToInject == 0) {
                if (config_.responseWords > 0) {
                    source.state = Source::State::WaitingResponse;
                } else {
                    // Posted transaction: done once injected.
                    ++source.transactions;
                    source.latencySum +=
                        now_ + 1.0 - source.transactionStart;
                    source.state = Source::State::Thinking;
                    source.thinkLeft = config_.meanThink <= 0.0
                        ? 0.0
                        : static_cast<double>(rng_.geometric(std::min(
                              1.0, 1.0 / config_.meanThink)));
                }
            }
            break;
          }
          case Source::State::WaitingResponse:
            ++source.blockedCycles;
            break;
        }
    }

    now_ += 1.0;
}

PacketNetStats
PacketOmegaNetwork::run(std::uint64_t cycles)
{
    for (std::uint64_t c = 0; c < cycles; ++c) {
        stepCycle();
    }
    cyclesRun_ += cycles;

    PacketNetStats stats;
    stats.cycles = cyclesRun_;
    std::uint64_t think = 0;
    std::uint64_t total = 0;
    double latency = 0.0;
    for (const Source &source : sources_) {
        think += source.thinkCycles;
        total += source.thinkCycles + source.blockedCycles;
        stats.transactions += source.transactions;
        latency += source.latencySum;
    }
    stats.computeFraction = total > 0
        ? static_cast<double>(think) / static_cast<double>(total)
        : 0.0;
    stats.meanLatency = stats.transactions > 0
        ? latency / static_cast<double>(stats.transactions)
        : 0.0;

    const double link_cycles = static_cast<double>(cyclesRun_) *
        static_cast<double>(ports_) * config_.stages;
    stats.linkLoad = std::max(
        static_cast<double>(wordCyclesForward_),
        static_cast<double>(wordCyclesBackward_)) / link_cycles;
    stats.maxQueueDepth = maxQueueDepth_;
    stats.backpressureStalls = backpressureStalls_;
    return stats;
}

} // namespace swcc
