#include "sim/mp/validation.hh"

#include <optional>

#include "core/obs/progress.hh"
#include "core/parallel.hh"
#include "core/scheme_evaluator.hh"
#include "sim/cache/dragon_protocol.hh"
#include "sim/mp/param_extractor.hh"
#include "sim/mp/system.hh"
#include "sim/synth/trace_generator.hh"

namespace swcc
{

double
ValidationPoint::errorPercent() const
{
    return simPower > 0.0
        ? 100.0 * (modelPower - simPower) / simPower
        : 0.0;
}

ValidationPoint
validatePoint(const ValidationConfig &config, CpuId cpus)
{
    const bool software_trace = config.scheme == Scheme::SoftwareFlush;

    SyntheticWorkloadConfig workload = profileConfig(
        config.profile, cpus, config.instructionsPerCpu,
        config.seed + cpus, software_trace);
    // Lane-resident arena: a pool lane runs many validation cells, and
    // the multi-megabyte trace buffer is the dominant allocation.
    // clear() resets length and cpu count but keeps capacity, so every
    // cell after the first on a lane generates into already-warm
    // memory. Contents are identical to a fresh generateTrace() call.
    thread_local TraceBuffer trace;
    generateTrace(workload, trace);
    const SharedClassifier shared = workload.sharedClassifier();

    CacheConfig cache;
    cache.sizeBytes = config.cacheBytes;
    cache.blockBytes = workload.blockBytes;

    ValidationPoint point;
    point.profile = config.profile;
    point.scheme = config.scheme;
    point.cpus = cpus;
    point.cacheBytes = config.cacheBytes;

    // A Dragon point's own run is the extraction's Dragon run: same
    // trace, cache, processor count and classifier, so its sharing
    // measurements are reused rather than simulated again. The system
    // is gone before extraction allocates its own.
    std::optional<DragonMeasurements> dragon;
    {
        MultiprocessorSystem system(config.scheme, cache, cpus, shared);
        point.sim = system.run(trace);
        if (config.scheme == Scheme::Dragon) {
            dragon = static_cast<const DragonProtocol &>(system.protocol())
                         .measurements();
        }
    }
    point.simPower = point.sim.processingPower();

    const ExtractedParams extracted = dragon
        ? extractParams(trace, cache, shared, *dragon)
        : extractParams(trace, cache, shared);
    warnDefaultedParams(extracted, config.scheme);
    point.model = evaluateBus(config.scheme, extracted.params, cpus);
    point.modelPower = point.model.processingPower;

    return point;
}

std::vector<ValidationPoint>
validate(const ValidationConfig &config)
{
    // One simulator instance per processor count, run concurrently.
    // Each cell seeds its own trace generator from the cell index
    // (seed + cpus), so the numbers are independent of evaluation
    // order and bit-identical to the serial loop. A cell's cost grows
    // with its CPU count, so the pool claims the widest cell first
    // (index i runs maxCpus - i CPUs) and the narrow ones fill the
    // lanes behind it; slot cpus - 1 keeps the result in CPU order.
    obs::ProgressReporter progress("validate", config.maxCpus);
    std::vector<ValidationPoint> points(config.maxCpus);
    parallelFor(config.maxCpus, [&](std::size_t i) {
        const std::size_t cpus = config.maxCpus - i;
        points[cpus - 1] =
            validatePoint(config, static_cast<CpuId>(cpus));
        progress.tick();
    });
    return points;
}

} // namespace swcc
