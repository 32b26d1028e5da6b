/**
 * @file
 * The benchmark's four workloads and the metric names they report.
 *
 * Every run prints every end-to-end metric (untraced) or every
 * per-layer metric (traced) named in BENCHMARK.json; README.md in this
 * directory gives each metric's definition on each workload.
 */

#ifndef SWCC_PERFBENCH_WORKLOADS_HH
#define SWCC_PERFBENCH_WORKLOADS_HH

#include <map>
#include <string>
#include <vector>

#include "common.hh"
#include "core/parallel.hh"
#include "core/solver_cache.hh"
#include "core/types.hh"

namespace perfbench
{

/**
 * The end-to-end numbers of an untraced run, in BENCHMARK.json order.
 * peak_rss_mb is read by the caller when the workload returns.
 */
struct EndToEnd
{
    double setupS = 0.0;
    double simEventsPerS = 0.0;
    double modelErrPct = 0.0;
    double netPortCyclesPerS = 0.0;
    double svcQps = 0.0;
    double svcP50Us = 0.0;
};

/** Appends the end-to-end metrics (and peak RSS) to @p result. */
void addEndToEnd(const EndToEnd &e2e, RunResult &result);

/**
 * The per-layer metrics of a traced run. Every name of the fixed list
 * is printed; a layer the workload does not exercise reads 0.
 */
class PerLayer
{
  public:
    PerLayer();

    /** @throws std::logic_error for a name not in the list. */
    void set(const std::string &name, double value);

    void addTo(RunResult &result) const;

    /** Every per-layer metric, in BENCHMARK.json order. */
    struct Spec
    {
        std::string name;
        std::string unit;
    };
    static const std::vector<Spec> &specs();

  private:
    std::map<std::string, double> values_;
};

/** Lower-case scheme tag used in metric names ("adaptive-hybrid"). */
std::string schemeTag(swcc::Scheme scheme);

/**
 * A workload run. @p record appends the run's outputs to the
 * reference file instead of checking them (one pass, no metrics).
 */
void runValidateHw(const Options &options, bool record,
                   RunResult &result);
void runValidateSw(const Options &options, bool record,
                   RunResult &result);
void runNetValidate(const Options &options, bool record,
                    RunResult &result);
void runSwccdMix(const Options &options, RunResult &result);

/**
 * Self-test of the output checks: corrupts one reference digest and
 * one daemon reply and returns true when both are reported as
 * failures (and nothing else is).
 */
bool selfTestChecks(const Options &options);

/** Path of @p workload's reference file. */
std::string referencePath(const Options &options,
                          const std::string &workload);

/**
 * A slice of the validation flow swccd-mix runs before its service
 * phases, so that it too reports the simulation metrics. It is checked
 * against the validate-hw or net-validate reference of the seed.
 */
struct SampleStats
{
    /** Events (or port-cycles) simulated per host second. */
    double rate = 0.0;
    double absErrorSum = 0.0;
    std::size_t points = 0;
};

/**
 * validate(): Dragon on pero-like over 1..16 CPUs, repeated for
 * @p seconds; the rate is the median over passes.
 */
SampleStats runValidationSample(const Options &options, double seconds,
                                RunResult &result);

/**
 * validateNetworkPoint() over X1's stage-6 grid (both modes, one call a
 * point, across the pool), repeated for @p seconds; the rate is the
 * median over passes.
 */
SampleStats runNetworkSample(const Options &options, double seconds,
                             RunResult &result);

/** Solver-memo and pool counters, for deltas over a traced pass. */
struct CounterSnapshot
{
    swcc::SolverCacheStats cache;
    swcc::WorkerStats pool;

    static CounterSnapshot now();
};

/** Sets the core.solver_cache.* and parallel.* metrics since @p before. */
void setCounterDeltas(const CounterSnapshot &before, PerLayer &layers);

/** Records in the run's provenance whether the seed has references. */
void noteReference(const ReferenceSet &refs, RunResult &result);

class SpanRecorder;

/**
 * Ends a traced run: writes the spans as a Chrome trace under the
 * output directory (a file that fails the trace-event contract is a
 * failed output), prints each span's self time, sets failed_frac and
 * appends every per-layer metric to @p result.
 */
void finishTraced(const SpanRecorder &spans, const Options &options,
                  PerLayer &layers, RunResult &result);

} // namespace perfbench

#endif // SWCC_PERFBENCH_WORKLOADS_HH
