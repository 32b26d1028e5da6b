/**
 * @file
 * validate-hw and validate-sw: the paper's model-vs-simulation
 * validation flow (Section 3) over 1..16 processors.
 *
 * The untraced pass calls the library's validate()/validatePoint()
 * exactly as a user would. The traced run replays the same points
 * layer by layer from here -- generate, analyze, protocol access,
 * system run, parameter extraction, bus model -- with a span around
 * each call, and checks that every point's statistics are identical
 * to the untraced pass.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/parallel.hh"
#include "core/scheme_evaluator.hh"
#include "core/solver_cache.hh"
#include "sim/cache/base_protocol.hh"
#include "sim/cache/dragon_protocol.hh"
#include "sim/cache/hybrid_protocol.hh"
#include "sim/cache/mesi_family_protocol.hh"
#include "sim/cache/nocache_protocol.hh"
#include "sim/cache/swflush_protocol.hh"
#include "sim/mp/param_extractor.hh"
#include "sim/mp/system.hh"
#include "sim/mp/validation.hh"
#include "sim/synth/trace_generator.hh"
#include "sim/trace/trace_stats.hh"
#include "spans.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace swcc;

/** Trace length per processor: 865k events at 16 CPUs on pero-like. */
constexpr std::size_t kInstructionsPerCpu = 40'000;

struct Sweep
{
    Scheme scheme;
    AppProfile profile;
    std::size_t cacheBytes;
    CpuId maxCpus;
};

/** A validatePoint() call outside the 1..maxCpus sweeps. */
struct WidePoint
{
    Scheme scheme;
    AppProfile profile;
    std::size_t cacheBytes;
    CpuId cpus;
};

struct Spec
{
    std::string name;
    std::vector<Sweep> sweeps;
    std::vector<WidePoint> wide;
};

Spec
hwSpec()
{
    // The snooping schemes on the sharing-heavy profile: the snoop
    // paths (directory, dirty-holder bitset, cycle steals) do most of
    // the work, and the 48-CPU points widen the tournament tree.
    Spec spec{"validate-hw", {}, {}};
    for (const Scheme scheme :
         {Scheme::Dragon, Scheme::Mesi, Scheme::Moesi, Scheme::Hybrid}) {
        spec.sweeps.push_back({scheme, AppProfile::PeroLike, 64 * 1024, 16});
    }
    for (const Scheme scheme : {Scheme::Dragon, Scheme::Mesi}) {
        spec.wide.push_back({scheme, AppProfile::PeroLike, 64 * 1024, 48});
    }
    return spec;
}

Spec
swSpec()
{
    // The paper's software schemes never snoop. pero-like at 64 KB is
    // limited by sharing, pops-like at 16 KB by cache capacity.
    Spec spec{"validate-sw", {}, {}};
    for (const auto &[profile, cache] :
         {std::pair{AppProfile::PeroLike, std::size_t{64 * 1024}},
          std::pair{AppProfile::PopsLike, std::size_t{16 * 1024}}}) {
        for (const Scheme scheme :
             {Scheme::Base, Scheme::NoCache, Scheme::SoftwareFlush}) {
            spec.sweeps.push_back({scheme, profile, cache, 16});
        }
    }
    return spec;
}

ValidationConfig
configOf(Scheme scheme, AppProfile profile, std::size_t cache_bytes,
         CpuId max_cpus, std::uint64_t seed)
{
    ValidationConfig config;
    config.profile = profile;
    config.scheme = scheme;
    config.cacheBytes = cache_bytes;
    config.maxCpus = max_cpus;
    config.instructionsPerCpu = kInstructionsPerCpu;
    config.seed = seed;
    return config;
}

std::string
pointKey(Scheme scheme, AppProfile profile, std::size_t cache_bytes,
         CpuId cpus)
{
    return schemeTag(scheme) + "/" + std::string(profileName(profile)) +
        "/" + std::to_string(cache_bytes / 1024) + "k/c" +
        std::to_string(cpus);
}

/** Trace events the simulator retired: fetches, data refs, flushes. */
std::uint64_t
eventsOf(const SimStats &sim)
{
    std::uint64_t flushes = 0;
    for (const CpuStats &cpu : sim.perCpu) {
        flushes += cpu.flushes;
    }
    return sim.totalInstructions() + sim.totalDataRefs() + flushes;
}

/** What one untraced pass measured. */
struct PassStats
{
    double wall = 0.0;
    double events = 0.0;
    double procCycles = 0.0;
    double absErrorSum = 0.0;
    std::size_t points = 0;
    /** Latency of each library call, microseconds. */
    std::vector<double> callUs;
};

void
checkPoint(const ValidationPoint &point, ReferenceSet &refs,
           RunResult &result, PassStats &pass)
{
    const double error = point.errorPercent();
    checkAgainstReference(
        refs,
        pointKey(point.scheme, point.profile, point.cacheBytes, point.cpus),
        fnv1a(point.sim.serialize()), error, result);
    pass.events += static_cast<double>(eventsOf(point.sim));
    pass.procCycles += point.sim.makespan * point.cpus;
    pass.absErrorSum += std::fabs(error);
    ++pass.points;
}

PassStats
runPass(const Spec &spec, std::uint64_t seed, ReferenceSet &refs,
        RunResult &result)
{
    PassStats pass;
    // Every pass solves the model afresh, as a first pass would.
    clearSolverCache();
    const Clock::time_point start = Clock::now();
    for (const Sweep &sweep : spec.sweeps) {
        const Clock::time_point call = Clock::now();
        const std::vector<ValidationPoint> points = validate(configOf(
            sweep.scheme, sweep.profile, sweep.cacheBytes, sweep.maxCpus,
            seed));
        pass.callUs.push_back(secondsSince(call) * 1e6);
        for (const ValidationPoint &point : points) {
            checkPoint(point, refs, result, pass);
        }
    }
    std::vector<ValidationPoint> wide(spec.wide.size());
    std::vector<double> wide_us(spec.wide.size());
    parallelFor(spec.wide.size(), [&](std::size_t i) {
        const WidePoint &w = spec.wide[i];
        const Clock::time_point call = Clock::now();
        wide[i] = validatePoint(
            configOf(w.scheme, w.profile, w.cacheBytes, w.cpus, seed),
            w.cpus);
        wide_us[i] = secondsSince(call) * 1e6;
    });
    for (std::size_t i = 0; i < wide.size(); ++i) {
        pass.callUs.push_back(wide_us[i]);
        checkPoint(wide[i], refs, result, pass);
    }
    pass.wall = secondsSince(start);
    return pass;
}

/**
 * Grows every pool lane's trace arena to the workload's largest trace,
 * one point per lane. Otherwise peak memory would depend on which
 * lanes happened to draw the largest points during the timed passes.
 */
void
warmUp(const Spec &spec, std::uint64_t seed)
{
    WidePoint largest{spec.sweeps.front().scheme,
                      spec.sweeps.front().profile,
                      spec.sweeps.front().cacheBytes,
                      spec.sweeps.front().maxCpus};
    for (const WidePoint &w : spec.wide) {
        if (w.cpus > largest.cpus) {
            largest = w;
        }
    }
    parallelFor(benchLanes(), [&](std::size_t) {
        (void)validatePoint(configOf(largest.scheme, largest.profile,
                                     largest.cacheBytes, largest.cpus,
                                     seed),
                            largest.cpus);
    });
}

std::unique_ptr<CoherenceProtocol>
makeProtocol(Scheme scheme, const CacheConfig &cache, CpuId cpus,
             const SharedClassifier &shared)
{
    switch (scheme) {
      case Scheme::Base:
        return std::make_unique<BaseProtocol>(cache, cpus);
      case Scheme::NoCache:
        return std::make_unique<NoCacheProtocol>(cache, cpus, shared);
      case Scheme::SoftwareFlush:
        return std::make_unique<SwFlushProtocol>(cache, cpus);
      case Scheme::Dragon:
        return std::make_unique<DragonProtocol>(cache, cpus, shared);
      case Scheme::Mesi:
        return std::make_unique<MesiFamilyProtocol>(MesiVariant::Mesi,
                                                    cache, cpus);
      case Scheme::Mesif:
        return std::make_unique<MesiFamilyProtocol>(MesiVariant::Mesif,
                                                    cache, cpus);
      case Scheme::Moesi:
        return std::make_unique<MesiFamilyProtocol>(MesiVariant::Moesi,
                                                    cache, cpus);
      case Scheme::Hybrid:
        return std::make_unique<HybridProtocol>(cache, cpus);
    }
    throw std::invalid_argument("unknown scheme");
}

/** One point of the layer-by-layer replay. */
struct LayerPoint
{
    WidePoint where;
    std::string key;
    std::uint64_t digest = 0;
    double error = 0.0;
    std::uint64_t traceEvents = 0;
    SimStats sim;
};

/**
 * validatePoint() call by call, with a span around each layer. The
 * point's statistics digest must match the untraced pass.
 */
void
replayPoint(LayerPoint &point, std::uint64_t seed, SpanRecorder &spans)
{
    const WidePoint &w = point.where;
    const std::string tag = schemeTag(w.scheme);
    const std::uint64_t group = spans.newGroup();
    const SpanRecorder::Scope whole(spans, "point", group);

    const SyntheticWorkloadConfig workload = profileConfig(
        w.profile, w.cpus, kInstructionsPerCpu, seed + w.cpus,
        w.scheme == Scheme::SoftwareFlush);
    thread_local TraceBuffer trace;
    {
        const SpanRecorder::Scope s(spans, "synth.generate", group);
        generateTrace(workload, trace);
    }
    const SharedClassifier shared = workload.sharedClassifier();
    CacheConfig cache;
    cache.sizeBytes = w.cacheBytes;
    cache.blockBytes = workload.blockBytes;
    {
        const SpanRecorder::Scope s(spans, "trace.analyze", group);
        (void)analyzeTrace(trace, workload.blockBytes, shared);
    }
    {
        const std::unique_ptr<CoherenceProtocol> protocol =
            makeProtocol(w.scheme, cache, w.cpus, shared);
        AccessResult out;
        const SpanRecorder::Scope s(spans, "cache.access." + tag, group);
        for (const TraceEvent &event : trace) {
            protocol->access(event.cpu, event.type, event.addr, out);
        }
    }
    {
        MultiprocessorSystem system(w.scheme, cache, w.cpus, shared);
        const SpanRecorder::Scope s(spans, "mp.run." + tag, group);
        point.sim = system.run(trace);
    }
    ExtractedParams extracted;
    {
        const SpanRecorder::Scope s(spans, "mp.extract", group);
        extracted = extractParams(trace, cache, shared);
    }
    BusSolution model;
    {
        const SpanRecorder::Scope s(spans, "core.eval_bus", group);
        model = evaluateBus(w.scheme, extracted.params, w.cpus);
    }
    const double sim_power = point.sim.processingPower();
    point.error = sim_power > 0.0
        ? 100.0 * (model.processingPower - sim_power) / sim_power
        : 0.0;
    point.digest = fnv1a(point.sim.serialize());
    point.traceEvents = trace.size();
}

std::vector<LayerPoint>
layerPoints(const Spec &spec)
{
    std::vector<LayerPoint> points;
    for (const Sweep &sweep : spec.sweeps) {
        for (CpuId cpus = 1; cpus <= sweep.maxCpus; ++cpus) {
            points.push_back({{sweep.scheme, sweep.profile,
                               sweep.cacheBytes, cpus},
                              {}, 0, 0.0, 0, {}});
        }
    }
    for (const WidePoint &w : spec.wide) {
        points.push_back({w, {}, 0, 0.0, 0, {}});
    }
    // Largest first, so the pool's dynamic claiming balances lanes.
    std::stable_sort(points.begin(), points.end(),
                     [](const LayerPoint &a, const LayerPoint &b) {
                         return a.where.cpus > b.where.cpus;
                     });
    for (LayerPoint &p : points) {
        p.key = pointKey(p.where.scheme, p.where.profile,
                         p.where.cacheBytes, p.where.cpus);
    }
    return points;
}

/** Runs the replay over the pool and checks every point. */
double
runLayerPass(std::vector<LayerPoint> &points, std::uint64_t seed,
             SpanRecorder &spans, ReferenceSet &refs, RunResult &result)
{
    clearSolverCache();
    const Clock::time_point start = Clock::now();
    parallelFor(points.size(), [&](std::size_t i) {
        replayPoint(points[i], seed, spans);
    });
    const double wall = secondsSince(start);
    for (const LayerPoint &p : points) {
        checkAgainstReference(refs, p.key, p.digest, p.error, result);
        result.attempt();
        if (p.traceEvents != eventsOf(p.sim)) {
            result.fail(p.key + ": simulator retired " +
                        std::to_string(eventsOf(p.sim)) + " of " +
                        std::to_string(p.traceEvents) + " trace events");
        }
    }
    return wall;
}

void
tracedRun(const Spec &spec, const Options &options, ReferenceSet &refs,
          RunResult &result)
{
    // The untraced library pass first: its outputs are the ones the
    // traced replay must reproduce.
    const PassStats untraced = runPass(spec, options.seed, refs, result);

    // A first replay grows the replay's own trace arenas, so the
    // spans-off and spans-on passes that follow start equally warm.
    std::vector<LayerPoint> points = layerPoints(spec);
    SpanRecorder spans;
    (void)runLayerPass(points, options.seed, spans, refs, result);
    const double wall_off =
        runLayerPass(points, options.seed, spans, refs, result);

    const CounterSnapshot before = CounterSnapshot::now();
    spans.setEnabled(true);
    const double wall_on =
        runLayerPass(points, options.seed, spans, refs, result);
    spans.setEnabled(false);


    PerLayer layers;
    setCounterDeltas(before, layers);
    layers.set("svc_p99_us", quantile(untraced.callUs, 0.99));
    std::map<Scheme, std::vector<const LayerPoint *>> by_scheme;
    double events = 0.0;
    for (const LayerPoint &p : points) {
        by_scheme[p.where.scheme].push_back(&p);
        events += static_cast<double>(p.traceEvents);
    }
    for (const auto &[scheme, list] : by_scheme) {
        const std::string tag = schemeTag(scheme);
        double ev = 0.0, steals = 0.0, misses = 0.0, tx = 0.0;
        double busy = 0.0, makespan = 0.0;
        for (const LayerPoint *p : list) {
            ev += static_cast<double>(eventsOf(p->sim));
            misses += static_cast<double>(p->sim.instrMisses +
                                          p->sim.dataMisses);
            tx += static_cast<double>(p->sim.busTransactions);
            busy += p->sim.busBusyCycles;
            makespan += p->sim.makespan;
            for (const CpuStats &cpu : p->sim.perCpu) {
                steals += cpu.stolen;
            }
        }
        const double access_ns =
            spans.totalSeconds("cache.access." + tag) / ev * 1e9;
        const double run_ns =
            spans.totalSeconds("mp.run." + tag) / ev * 1e9;
        layers.set("cache.access_ns." + tag, access_ns);
        layers.set("mp.run_ns." + tag, run_ns);
        layers.set("mp.loop_ns." + tag, run_ns - access_ns);
        layers.set("mp.steals." + tag, steals);
        layers.set("cache.miss_ratio." + tag, misses / ev);
        layers.set("bus.transactions." + tag, tx);
        layers.set("bus.busy_frac." + tag, busy / makespan);
    }
    layers.set("synth.generate_s", spans.totalSeconds("synth.generate"));
    layers.set("trace.analyze_s", spans.totalSeconds("trace.analyze"));
    layers.set("mp.extract_s", spans.totalSeconds("mp.extract"));
    layers.set("mp.events", events);
    layers.set("core.eval_bus_us", spans.totalSeconds("core.eval_bus") /
                                       static_cast<double>(points.size()) *
                                       1e6);
    layers.set("trace.overhead_pct", 100.0 * (wall_on - wall_off) /
                                         wall_off);
    finishTraced(spans, options, layers, result);
}

void
runValidate(const Spec &spec, const Options &options, bool record,
            RunResult &result)
{
    const std::string path = referencePath(options, spec.name);
    ReferenceSet refs;
    EndToEnd e2e;
    e2e.setupS = medianSetupSeconds(3, [&] {
        refs.load(path, options.seed);
        warmUp(spec, options.seed);
    });
    if (record) {
        if (!refs.empty()) {
            throw std::runtime_error(path + " already holds seed " +
                                     std::to_string(options.seed));
        }
        (void)runPass(spec, options.seed, refs, result);
        if (!result.correct()) {
            throw std::runtime_error("recording pass failed");
        }
        refs.append(path, options.seed);
        return;
    }
    noteReference(refs, result);
    if (options.trace) {
        tracedRun(spec, options, refs, result);
        return;
    }

    std::vector<double> event_rates, cycle_rates, call_rates, call_us;
    double error = 0.0;
    const Clock::time_point start = Clock::now();
    do {
        const PassStats pass = runPass(spec, options.seed, refs, result);
        event_rates.push_back(pass.events / pass.wall);
        cycle_rates.push_back(pass.procCycles / pass.wall);
        call_rates.push_back(static_cast<double>(pass.callUs.size()) /
                             pass.wall);
        call_us.insert(call_us.end(), pass.callUs.begin(),
                       pass.callUs.end());
        error = pass.absErrorSum / static_cast<double>(pass.points);
    } while (secondsSince(start) < options.seconds);

    e2e.simEventsPerS = median(event_rates);
    e2e.modelErrPct = error;
    e2e.netPortCyclesPerS = median(cycle_rates);
    e2e.svcQps = median(call_rates);
    e2e.svcP50Us = quantile(call_us, 0.50);
    addEndToEnd(e2e, result);
}

} // namespace

void
runValidateHw(const Options &options, bool record, RunResult &result)
{
    runValidate(hwSpec(), options, record, result);
}

void
runValidateSw(const Options &options, bool record, RunResult &result)
{
    runValidate(swSpec(), options, record, result);
}

SampleStats
runValidationSample(const Options &options, double seconds,
                    RunResult &result)
{
    ReferenceSet refs;
    refs.load(referencePath(options, "validate-hw"), options.seed);
    const Spec spec{
        "sample", {{Scheme::Dragon, AppProfile::PeroLike, 64 * 1024, 16}},
        {}};
    std::vector<double> rates;
    PassStats pass;
    const Clock::time_point start = Clock::now();
    do {
        pass = runPass(spec, options.seed, refs, result);
        rates.push_back(pass.events / pass.wall);
    } while (secondsSince(start) < seconds);
    return {median(rates), pass.absErrorSum, pass.points};
}

} // namespace perfbench
