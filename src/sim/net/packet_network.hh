/**
 * @file
 * Cycle-level simulator of a *buffered packet-switched* omega network —
 * the alternative network discipline of the paper's conclusion ("Use
 * of packet-switching would be more favorable to No-Cache"), built to
 * validate the Kruskal-Snir analytical model in
 * core/packet_network_model.hh.
 *
 * Two mirrored n-stage omega fabrics connect 2^n processors to 2^n
 * memory modules: requests route by memory id, responses by processor
 * id. Every switch output port is an output queue serving one word
 * per cycle (unbounded buffers). A memory transaction injects a
 * request train of req words; after the full train arrives the module
 * waits memoryCycles and injects a response train of resp words; the
 * processor blocks until the last response word returns (or, for
 * posted transactions with resp = 0, only for the injection).
 */

#ifndef SWCC_SIM_NET_PACKET_NETWORK_HH
#define SWCC_SIM_NET_PACKET_NETWORK_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/synth/rng.hh"

namespace swcc
{

/** Configuration of one packet-network simulation. */
struct PacketNetConfig
{
    /** Switch stages n; 2^n processors and memory modules. */
    unsigned stages = 4;
    /** Mean computing cycles between transactions. */
    double meanThink = 20.0;
    /** Words per request train (>= 1). */
    unsigned requestWords = 1;
    /** Words per response train (0 = posted transaction). */
    unsigned responseWords = 4;
    /** Memory access latency between trains. */
    unsigned memoryCycles = 2;
    /**
     * Per-port buffer capacity in words (0 = unbounded). With finite
     * buffers a full downstream queue exerts backpressure: the word
     * stays put and its link idles that cycle.
     */
    unsigned bufferWords = 0;
    std::uint64_t seed = 1;

    void validate() const;
};

/** Aggregate results of a packet-network simulation. */
struct PacketNetStats
{
    /** Network cycles simulated, over every run() call. */
    std::uint64_t cycles = 0;
    std::uint64_t transactions = 0;
    /** Fraction of source cycles spent computing. */
    double computeFraction = 0.0;
    /** Mean cycles from first request word to transaction complete. */
    double meanLatency = 0.0;
    /** Mean occupancy of the busiest direction's links (load p). */
    double linkLoad = 0.0;
    /** Largest queue length observed anywhere (buffer sizing). */
    std::size_t maxQueueDepth = 0;
    /** Cycles a word stalled because a buffer downstream was full. */
    std::uint64_t backpressureStalls = 0;
};

/**
 * The buffered packet-switched network plus its sources and memories.
 */
class PacketOmegaNetwork
{
  public:
    explicit PacketOmegaNetwork(const PacketNetConfig &config);

    /**
     * Runs @p cycles more network cycles and returns the statistics
     * of every cycle simulated so far: run(a) then run(b) reports the
     * same as a fresh network's run(a + b).
     */
    PacketNetStats run(std::uint64_t cycles);

    std::uint32_t ports() const { return ports_; }

  private:
    /** One word in flight. */
    struct Word
    {
        /** Routing target (memory id forward, processor id back). */
        std::uint32_t target = 0;
        /** Originating processor (to attribute delivery). */
        std::uint32_t source = 0;
        /** True if this is the last word of its train. */
        bool last = false;
    };

    /** One direction's fabric: per-stage, per-port output queues. */
    struct Fabric
    {
        std::vector<std::vector<std::deque<Word>>> queues;
    };

    /** A processor-side source. */
    struct Source
    {
        enum class State : std::uint8_t
        {
            Thinking,
            Injecting,
            WaitingResponse,
        };
        State state = State::Thinking;
        double thinkLeft = 0.0;
        std::uint32_t dest = 0;
        unsigned wordsToInject = 0;
        unsigned responseWordsLeft = 0;
        double transactionStart = 0.0;
        std::uint64_t thinkCycles = 0;
        std::uint64_t blockedCycles = 0;
        std::uint64_t transactions = 0;
        double latencySum = 0.0;
    };

    /** A memory module assembling trains and replying. */
    struct Memory
    {
        /** Pending replies: (ready cycle, requester). */
        std::deque<std::pair<double, std::uint32_t>> pending;
        /** Words of the current incoming train per requester. */
        std::vector<unsigned> received;
        /** Words left to inject of the active response. */
        unsigned injectLeft = 0;
        std::uint32_t injectTarget = 0;
    };

    void stepCycle();
    void advanceFabric(Fabric &fabric, bool toward_memory);
    /** True if @p queue can accept one more word. */
    bool hasRoom(const std::deque<Word> &queue) const;
    void deliver(const Word &word, bool toward_memory);
    std::uint32_t entryPort(std::uint32_t input, std::uint32_t target,
                            unsigned stage) const;

    PacketNetConfig config_;
    std::uint32_t ports_;
    Rng rng_;
    Fabric forward_;
    Fabric backward_;
    std::vector<Source> sources_;
    std::vector<Memory> memories_;
    double now_ = 0.0;
    /** Cycles simulated over every run() call. */
    std::uint64_t cyclesRun_ = 0;
    std::uint64_t wordCyclesForward_ = 0;
    std::uint64_t wordCyclesBackward_ = 0;
    std::size_t maxQueueDepth_ = 0;
    std::uint64_t backpressureStalls_ = 0;
};

} // namespace swcc

#endif // SWCC_SIM_NET_PACKET_NETWORK_HH
