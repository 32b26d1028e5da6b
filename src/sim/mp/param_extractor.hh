/**
 * @file
 * Workload-parameter extraction: trace + cache simulation -> the
 * analytical model's Table 2 parameters.
 *
 * This mirrors the paper's methodology: ls, shd, wr, apl and mdshd are
 * measured from the raw trace; miss rates and md come from replaying
 * the trace through Base-scheme caches; oclean, opres and nshd come
 * from a Dragon simulation that observes other caches at each shared
 * miss and write.
 */

#ifndef SWCC_SIM_MP_PARAM_EXTRACTOR_HH
#define SWCC_SIM_MP_PARAM_EXTRACTOR_HH

#include <array>
#include <cstdint>
#include <vector>

#include "core/operation.hh"
#include "core/workload.hh"
#include "sim/cache/cache_config.hh"
#include "sim/cache/dragon_protocol.hh"
#include "sim/trace/trace_buffer.hh"
#include "sim/trace/trace_stats.hh"

namespace swcc
{

/** One processor's references in a Base cache replay. */
struct CpuRefCounts
{
    /** Instructions fetched (including flush instructions). */
    std::uint64_t instructions = 0;
    /** Loads + stores issued. */
    std::uint64_t dataRefs = 0;
    /** Flush events (Base ignores them). */
    std::uint64_t flushes = 0;
};

/**
 * Reference and miss counts of private caches under the Base scheme,
 * counted as MultiprocessorSystem counts them.
 */
struct BaseCacheCounts
{
    std::vector<CpuRefCounts> perCpu;

    /** Occurrences of each system-model operation. */
    std::array<std::uint64_t, kNumOperations> opCounts{};

    /** Misses broken out by reference kind. */
    std::uint64_t instrMisses = 0;
    std::uint64_t dataMisses = 0;
    /** Misses that replaced a dirty block. */
    std::uint64_t dirtyMisses = 0;

    /** Data misses per data reference (msdat). */
    double dataMissRate() const;

    /** Instruction misses per instruction (mains). */
    double instrMissRate() const;

    /** Fraction of misses that replaced a dirty block (md). */
    double dirtyMissFraction() const;
};

/**
 * Replays @p trace, in its interleaved order, through @p cpus private
 * caches under the Base scheme, with no timing, bus or scheduling.
 *
 * Base reads and writes only the accessing processor's own cache, so
 * each cache sees its processor's references in program order whatever
 * the interleaving, and these counts equal those of a timed
 * MultiprocessorSystem(Scheme::Base) run of the same trace.
 *
 * @throws std::invalid_argument if the trace uses more than @p cpus
 *         processors.
 */
BaseCacheCounts replayBaseCaches(const TraceBuffer &trace,
                                 const CacheConfig &cache_config,
                                 CpuId cpus);

/** Extraction result: the model inputs plus their provenance. */
struct ExtractedParams
{
    /** The assembled model input. */
    WorkloadParams params;
    /** Raw-trace measurements (ls, shd, wr, apl, mdshd). */
    TraceStatistics traceStats;
    /** Base-scheme cache counts (miss rates, md). */
    BaseCacheCounts baseStats;
    /** Dragon sharing measurements (oclean, opres, nshd). */
    DragonMeasurements dragonMeasurements;
};

/**
 * Measures every Table 2 parameter of @p trace at @p cache_config.
 *
 * Defaults stand in for quantities a trace cannot expose: when the
 * trace has no flushes, mdshd falls back to the Table 7 middle value;
 * when it has no terminated write-runs, apl does likewise.
 * warnDefaultedParams() reports the fallbacks that matter to a scheme.
 *
 * @param trace Interleaved trace.
 * @param cache_config Cache geometry for the miss-rate measurements.
 * @param shared Shared classifier; dynamic detection when null.
 */
ExtractedParams extractParams(const TraceBuffer &trace,
                              const CacheConfig &cache_config,
                              const SharedClassifier &shared = nullptr);

/**
 * As above, with the sharing measurements taken from @p dragon instead
 * of a Dragon run of its own; validatePoint() passes the Dragon run it
 * validates. The result is identical when @p dragon comes from a
 * MultiprocessorSystem(Scheme::Dragon) run of @p trace at
 * @p cache_config with one processor per trace CPU and @p shared as
 * its classifier (null here standing for the dynamicSharedBlocks()
 * set).
 */
ExtractedParams extractParams(const TraceBuffer &trace,
                              const CacheConfig &cache_config,
                              const SharedClassifier &shared,
                              const DragonMeasurements &dragon);

/**
 * Warns about each parameter that @p extracted took from the Table 7
 * middle value and that @p scheme's frequency table reads: apl
 * (Software-Flush and the invalidate family: MESI, MESIF, MOESI,
 * Adaptive-Hybrid) when the trace has no write runs, mdshd
 * (Software-Flush only) when it has no flush events.
 */
void warnDefaultedParams(const ExtractedParams &extracted, Scheme scheme);

} // namespace swcc

#endif // SWCC_SIM_MP_PARAM_EXTRACTOR_HH
