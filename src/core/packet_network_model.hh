/**
 * @file
 * Buffered packet-switched multistage-network model — the alternative
 * network discipline the paper's Section 6.3 and conclusion point to:
 * "Use of packet-switching would be more favorable to No-Cache."
 *
 * The model follows Kruskal & Snir's analysis of buffered banyan
 * networks: each 2x2 switch output port is an output-queued server of
 * one word per cycle, and at per-link load p the mean queueing delay
 * per stage is w(p) = p / (4 (1 - p)). A memory transaction sends a
 * request packet train and blocks until the last word of the response
 * train returns; round-trip latency is therefore
 *
 *   L = 2 n (1 + w(p)) + t_mem + (req_words - 1) + (resp_words - 1)
 *
 * and the per-link load is itself a function of how fast the
 * processors run, giving a fixed point solved here by bisection.
 */

#ifndef SWCC_CORE_PACKET_NETWORK_MODEL_HH
#define SWCC_CORE_PACKET_NETWORK_MODEL_HH

#include <array>

#include "core/frequency_model.hh"
#include "core/types.hh"
#include "core/workload.hh"

namespace swcc
{

/** Words a transaction moves in each direction. */
struct PacketShape
{
    /** Words sent toward memory (address + any write data). */
    double requestWords = 0.0;
    /** Words returned to the processor. */
    double responseWords = 0.0;
};

/**
 * Word counts per operation for the packet network.
 *
 * Defaults mirror the circuit-switched Table 9 payloads: a clean fetch
 * sends a 1-word request and receives a 4-word block; a dirty fetch
 * also carries the 4-word victim (plus its address) forward; a dirty
 * flush is a 5-word one-way train; read-through and write-through move
 * single words. A zero-word response means the processor does not wait
 * for one (write-through and flush are posted).
 */
class PacketTrafficModel
{
  public:
    PacketTrafficModel();

    /** Shape of one operation. @pre supports(op) */
    PacketShape shape(Operation op) const;

    /** Whether the operation exists on a network (no snooping ops). */
    bool supports(Operation op) const;

    /** Overrides one operation's shape (ablations). */
    void setShape(Operation op, PacketShape shape);

    /** Memory access latency in cycles (default 2, as in Table 9). */
    double memoryCycles = 2.0;

  private:
    std::array<PacketShape, kNumOperations> shapes_;
    std::array<bool, kNumOperations> supported_;
};

/** Solution of the packet-switched network model. */
struct PacketNetworkSolution
{
    unsigned stages = 0;
    unsigned processors = 0;
    /** c: CPU cycles per instruction (instruction work + local cache
     *  handling; network latency accounted separately). */
    Cycles cpuPerInstruction = 0.0;
    /** Mean words per instruction on the hotter direction. */
    double wordsPerInstruction = 0.0;
    /** Per-link load p at the fixed point. */
    double linkLoad = 0.0;
    /** Kruskal-Snir queueing delay per stage at the fixed point. */
    double perStageWait = 0.0;
    /** Mean blocked cycles per instruction waiting on the network. */
    Cycles networkStall = 0.0;
    /** Total cycles per instruction. */
    Cycles cyclesPerInstruction = 0.0;
    /** 1 / cyclesPerInstruction. */
    double processorUtilization = 0.0;
    /** processors * processorUtilization. */
    double processingPower = 0.0;
};

/**
 * Solves the packet-network fixed point for a scheme and workload.
 *
 * The CPU-side cost of each operation is its Table 1 *processor*
 * overhead with the bus-held portion replaced by the network
 * round-trip; instruction execution contributes one cycle.
 *
 * @param scheme Base, NoCache, or SoftwareFlush.
 * @param params The workload.
 * @param stages Switch stages (2^stages processors).
 * @param traffic Word-count model (defaults above).
 * @throws std::invalid_argument for Scheme::Dragon or a stage count
 *         networkProcessors() rejects.
 */
PacketNetworkSolution
solvePacketNetwork(Scheme scheme, const WorkloadParams &params,
                   unsigned stages,
                   const PacketTrafficModel &traffic = {});

/** Kruskal-Snir per-stage queueing delay for 2x2 switches at load p. */
double kruskalSnirWait(double link_load);

/**
 * Raw operating point of the packet network model, independent of any
 * coherence scheme — used to validate the model against the
 * packet-switched simulator.
 */
struct RawPacketSolution
{
    /** Cycles per transaction (think + latency). */
    double cyclesPerTransaction = 0.0;
    /** Round-trip (or injection) latency per transaction. */
    double latency = 0.0;
    /** Fraction of time the source computes. */
    double computeFraction = 0.0;
    /** Per-link load of the busier direction. */
    double linkLoad = 0.0;
};

/**
 * Solves the model for one source population: each source thinks for
 * @p think cycles, then issues a transaction of @p request_words /
 * @p response_words (response 0 = posted).
 */
RawPacketSolution
solveRawPacketPoint(double think, double request_words,
                    double response_words, unsigned stages,
                    double memory_cycles = 2.0);

} // namespace swcc

#endif // SWCC_CORE_PACKET_NETWORK_MODEL_HH
