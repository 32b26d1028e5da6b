/**
 * @file
 * Cycle-level simulator of an unbuffered circuit-switched omega
 * network of 2x2 crossbars with drop-and-retry flow control — the
 * network architecture of the paper's Section 6.1, built to validate
 * the Patel analytical model (the paper's stated future work).
 */

#ifndef SWCC_SIM_NET_OMEGA_NETWORK_HH
#define SWCC_SIM_NET_OMEGA_NETWORK_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/net/net_source.hh"
#include "sim/synth/rng.hh"

namespace swcc
{

/** How a memory transaction occupies the network. */
enum class NetMode : std::uint8_t
{
    /**
     * The unit-request approximation: a transaction of t cycles is t
     * independent single-cycle requests, each routed and arbitrated
     * separately. This is exactly what Patel's model analyses.
     */
    UnitRequest,
    /**
     * True circuit switching: one successful setup claims every switch
     * output port on the path and holds them for the whole message
     * duration.
     */
    Circuit,
};

/** Configuration of one network simulation. */
struct OmegaConfig
{
    /** Switch stages n; the network has switchDim^n ports. */
    unsigned stages = 4;
    /** Crossbar dimension k (the paper's "larger dimension" case). */
    unsigned switchDim = 2;
    /** Mean computing cycles between transactions (1/m). */
    double meanThink = 20.0;
    /** Total network cycles per transaction (t, including 2n transit). */
    double messageCycles = 12.0;
    NetMode mode = NetMode::UnitRequest;
    std::uint64_t seed = 1;

    void validate() const;
};

/** Aggregate results of a network simulation. */
struct OmegaStats
{
    /** Network cycles simulated, over every run() call. */
    std::uint64_t cycles = 0;
    /** Unit-request (or setup) attempts presented to stage 0. */
    std::uint64_t attempts = 0;
    /** Attempts that traversed all stages. */
    std::uint64_t accepted = 0;
    /** Completed transactions across all sources. */
    std::uint64_t transactions = 0;
    /** Mean request probability observed at each stage's inputs,
     *  stageLoads[0] being the network input (Patel's m_i). */
    std::vector<double> stageLoads;
    /** Fraction of source cycles spent computing (the model's U). */
    double computeFraction = 0.0;
    /** accepted / attempts. */
    double acceptance = 0.0;
    /** Accepted unit requests per port per cycle. */
    double throughputPerPort = 0.0;
};

/**
 * The omega network plus its request sources.
 *
 * Per cycle, every requesting source presents its request at its input
 * port; requests route by destination tag (bit n-1-i selects the
 * output port at stage i) across perfect-shuffle interconnections;
 * when two requests want the same switch output (or, in circuit mode,
 * the port is held), a random one survives and the rest are dropped,
 * to be retried by their sources next cycle.
 */
class OmegaNetwork
{
  public:
    explicit OmegaNetwork(const OmegaConfig &config);

    /**
     * Runs @p cycles more network cycles and returns the statistics
     * of every cycle simulated so far: run(a) then run(b) reports the
     * same as a fresh network's run(a + b).
     */
    OmegaStats run(std::uint64_t cycles);

    /** Number of ports (switchDim^stages). */
    std::uint32_t ports() const { return ports_; }

  private:
    /** One request travelling through the stages this cycle. */
    struct Attempt
    {
        std::uint32_t source;
        std::uint32_t dest;
        /** Source port, then the output port won at the last stage. */
        std::uint32_t pos;
        bool alive;
    };

    /** Arbitration state of one switch output port within a stage. */
    struct PortSlot
    {
        /** Attempts that reached the port; 0 means the port is free. */
        std::uint32_t contenders = 0;
        /** Index of the attempt currently holding the port. */
        std::uint32_t winner = 0;
    };

    /** One synchronous network cycle. */
    void stepCycle();

    /**
     * Routes the first @p live entries of attempts_ through every
     * stage. Returns how many were accepted; they are left, in source
     * order, at the front of attempts_.
     */
    std::size_t route(std::size_t live);

    OmegaConfig config_;
    std::uint32_t ports_;
    Rng rng_;
    std::vector<NetSource> sources_;

    /**
     * First output port of the switch that input port p feeds after
     * the k-ary perfect shuffle (the same at every stage).
     */
    std::vector<std::uint32_t> shuffleBase_;
    /** stages x ports: destination digit selecting the stage output. */
    std::vector<std::uint32_t> digit_;
    /** invContenders_[i] = 1/i, the i-th contender's chance to win. */
    std::vector<double> invContenders_;

    /** Per-cycle scratch, sized once so a cycle allocates nothing. */
    std::vector<Attempt> attempts_;
    std::vector<PortSlot> slots_;
    std::vector<std::uint8_t> completed_;

    /** Circuit mode, stages x ports: cycle at which each output frees. */
    std::vector<double> portFreeAt_;
    double now_ = 0.0;

    /** Cycles simulated over every run() call. */
    std::uint64_t cyclesRun_ = 0;
    /** Per-stage sums of offered requests, for stage loads. */
    std::vector<std::uint64_t> stageOffered_;
    std::uint64_t totalAttempts_ = 0;
    std::uint64_t totalAccepted_ = 0;
};

} // namespace swcc

#endif // SWCC_SIM_NET_OMEGA_NETWORK_HH
