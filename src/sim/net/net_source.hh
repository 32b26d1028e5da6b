/**
 * @file
 * Request source (processor) model for the network simulator.
 */

#ifndef SWCC_SIM_NET_NET_SOURCE_HH
#define SWCC_SIM_NET_NET_SOURCE_HH

#include <cstdint>

#include "sim/synth/rng.hh"

namespace swcc
{

/**
 * One processor-side network port.
 *
 * The source alternates between *thinking* (computing, geometric
 * duration with a configurable mean) and issuing one memory
 * transaction. Transactions are either a train of unit requests (the
 * analytical model's unit-request approximation) or a single circuit
 * held for the full message duration; the network decides which.
 * Blocked attempts are retried every cycle, as in the paper's
 * unbuffered drop-and-retry switches.
 */
class NetSource
{
  public:
    /** What the source is doing this cycle. */
    enum class State : std::uint8_t
    {
        /** Computing; no request at the port. */
        Thinking,
        /** Presenting a request at the port (possibly retrying). */
        Requesting,
        /** Holding an established circuit (circuit mode only). */
        Holding,
    };

    /**
     * @param mean_think Mean computing cycles between transactions
     *        (1/m in the model's terms); zero saturates the source.
     * @param units_mean Mean unit requests per transaction (t); each
     *        transaction draws floor/ceil randomly to hit the mean.
     * @param num_dests Number of memory modules (uniform destinations).
     */
    NetSource(double mean_think, double units_mean,
              std::uint32_t num_dests);

    State state() const { return state_; }

    /** Destination of the current request. @pre Requesting */
    std::uint32_t dest() const { return dest_; }

    /**
     * Advances one idle cycle (Thinking or Holding); may transition to
     * Requesting (drawing a destination) or back to Thinking.
     */
    void tick(Rng &rng)
    {
        switch (state_) {
          case State::Thinking:
            if (stateLeft_ <= 0.0) {
                beginRequest(rng);
                return;
            }
            stateLeft_ -= 1.0;
            if (stateLeft_ <= 0.0) {
                beginRequest(rng);
            }
            return;
          case State::Holding:
            stateLeft_ -= 1.0;
            if (stateLeft_ <= 0.0) {
                ++transactions_;
                beginThink(rng);
            }
            return;
          case State::Requesting:
            // Requests advance via unitAccepted()/startHolding().
            return;
        }
    }

    /**
     * Reports an accepted unit request; after the transaction's drawn
     * unit count the transaction completes and thinking resumes.
     */
    void unitAccepted(Rng &rng);

    /** Enters the Holding state for @p cycles (circuit established). */
    void startHolding(double cycles);

    /** Cycles spent in each state, for statistics. */
    std::uint64_t thinkCycles() const { return thinkCycles_; }
    std::uint64_t requestCycles() const { return requestCycles_; }
    std::uint64_t holdCycles() const { return holdCycles_; }

    /** Completed transactions. */
    std::uint64_t transactions() const { return transactions_; }

    /** Counts this cycle into the current state's total. */
    void countCycle()
    {
        switch (state_) {
          case State::Thinking:   ++thinkCycles_; return;
          case State::Requesting: ++requestCycles_; return;
          case State::Holding:    ++holdCycles_; return;
        }
    }

  private:
    void beginThink(Rng &rng);
    void beginRequest(Rng &rng);

    double meanThink_;
    double unitsMean_;
    std::uint32_t numDests_;
    State state_ = State::Thinking;
    double stateLeft_ = 0.0;
    std::uint32_t dest_ = 0;
    double unitsDone_ = 0.0;
    double unitsTarget_ = 1.0;

    std::uint64_t thinkCycles_ = 0;
    std::uint64_t requestCycles_ = 0;
    std::uint64_t holdCycles_ = 0;
    std::uint64_t transactions_ = 0;
};

} // namespace swcc

#endif // SWCC_SIM_NET_NET_SOURCE_HH
