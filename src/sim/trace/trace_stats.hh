/**
 * @file
 * Workload-parameter measurement from raw traces.
 *
 * Reproduces the measurement methodology of the paper's Section 4:
 * ls, shd and wr are counted directly; apl is estimated as the number
 * of references to a cache line by one processor (at least one of which
 * is a write) between references by another processor; mdshd is
 * measured from flush events when the trace contains them.
 */

#ifndef SWCC_SIM_TRACE_TRACE_STATS_HH
#define SWCC_SIM_TRACE_TRACE_STATS_HH

#include <cstddef>
#include <functional>
#include <optional>
#include <unordered_set>

#include "sim/trace/trace_buffer.hh"

namespace swcc
{

/**
 * Predicate classifying a block address as shared.
 *
 * The software schemes treat as shared whatever the compiler or
 * programmer marked (typically an address region); pass such a
 * predicate to measure the software interpretation. When absent, the
 * *dynamic* interpretation is used: a block is shared if more than one
 * processor references it anywhere in the trace (the paper's Dragon
 * interpretation).
 */
using SharedClassifier = std::function<bool(Addr block_addr)>;

/**
 * Counts and derived workload parameters measured from one trace.
 */
struct TraceStatistics
{
    /** Block size used for line-granularity statistics. */
    std::size_t blockBytes = 16;

    std::size_t instructions = 0;
    std::size_t loads = 0;
    std::size_t stores = 0;
    std::size_t flushes = 0;

    std::size_t dataRefs = 0;
    std::size_t sharedRefs = 0;
    std::size_t sharedWrites = 0;

    std::size_t dirtyFlushes = 0;

    /** Distinct data blocks observed. */
    std::size_t dataBlocks = 0;
    /** Distinct shared data blocks observed. */
    std::size_t sharedBlocks = 0;

    /** Number of uninterrupted write-runs counted for apl. */
    std::size_t aplRuns = 0;
    /** Total references across counted runs. */
    std::size_t aplRunRefs = 0;

    /** ls: data references per instruction. */
    double ls = 0.0;
    /** shd: fraction of data references touching shared blocks. */
    double shd = 0.0;
    /** wr: fraction of shared references that are stores. */
    double wr = 0.0;
    /** apl estimate (mean counted run length); nullopt if no runs. */
    std::optional<double> apl;
    /**
     * mdshd: dirty fraction of flushes; only measurable when the trace
     * carries flush events.
     */
    std::optional<double> mdshd;
    /**
     * Shared references per flush instruction — the apl actually
     * realised by the software that inserted the flushes (as opposed to
     * the optimistic run-length estimate above).
     */
    std::optional<double> aplPerFlush;
};

/**
 * The dynamic interpretation of sharing: the data blocks of @p trace
 * (at @p block_bytes granularity, a power of two) that more than one
 * processor references. analyzeTrace() uses this set when it has no
 * classifier.
 */
std::unordered_set<Addr> dynamicSharedBlocks(const TraceBuffer &trace,
                                             std::size_t block_bytes);

/**
 * Analyzes a trace at the given block granularity.
 *
 * @param trace The interleaved trace.
 * @param block_bytes Cache-block size (power of two).
 * @param classifier Optional software shared-region predicate; dynamic
 *        multi-processor detection is used when absent.
 * @throws std::invalid_argument if block_bytes is not a power of two.
 */
TraceStatistics analyzeTrace(const TraceBuffer &trace,
                             std::size_t block_bytes,
                             const SharedClassifier &classifier = nullptr);

} // namespace swcc

#endif // SWCC_SIM_TRACE_TRACE_STATS_HH
