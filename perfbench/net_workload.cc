/**
 * @file
 * net-validate: the network model against the cycle-level network
 * simulators -- X1's grid through networkValidationSweep(), X1's
 * 4x4-switch points through validateNetworkPoint() and X3's packet
 * points through validatePacketPoint().
 *
 * Circuit and unit-request mode use the omega simulator differently
 * (held paths versus one-cycle requests), so both stay in the grid.
 */

#include <cmath>
#include <stdexcept>

#include "core/network_model.hh"
#include "core/packet_network_model.hh"
#include "core/parallel.hh"
#include "core/solver_cache.hh"
#include "sim/net/net_experiment.hh"
#include "spans.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace swcc;

/** Simulated network cycles per point. */
constexpr std::uint64_t kCycles = 20'000;

const std::vector<double> kRates = {0.005, 0.01, 0.02, 0.04, 0.08};

/** One library call of the grid. */
struct Call
{
    enum class Kind
    {
        Sweep,
        Point,
        Packet,
    } kind;
    unsigned stages = 0;
    double size = 0.0;
    NetMode mode = NetMode::UnitRequest;
    /** Rate (single point) or think time (packet point). */
    double value = 0.0;
    /** Crossbar dimension of a single point. */
    unsigned dim = 2;
};

/** The grid, heaviest calls first so the pool balances its lanes. */
std::vector<Call>
gridCalls()
{
    std::vector<Call> calls;
    for (const auto &[stages, size] :
         {std::pair{8u, 20.0}, std::pair{6u, 16.0}}) {
        for (const NetMode mode : {NetMode::UnitRequest, NetMode::Circuit}) {
            calls.push_back({Call::Kind::Sweep, stages, size, mode, 0.0});
        }
    }
    for (const double think : {12.0, 15.0, 20.0, 30.0, 50.0, 100.0}) {
        calls.push_back(
            {Call::Kind::Packet, 6, 0.0, NetMode::UnitRequest, think});
    }
    for (const NetMode mode : {NetMode::UnitRequest, NetMode::Circuit}) {
        calls.push_back({Call::Kind::Sweep, 4, 12.0, mode, 0.0});
    }
    for (const double rate : {0.01, 0.02, 0.05}) {
        calls.push_back(
            {Call::Kind::Point, 3, 10.0, NetMode::Circuit, rate, 4});
    }
    return calls;
}

const char *
modeTag(NetMode mode)
{
    return mode == NetMode::UnitRequest ? "unit" : "circuit";
}

std::string
omegaKey(unsigned stages, unsigned dim, NetMode mode, double rate)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "omega/k%u/s%u/%s/r%g", dim, stages,
                  modeTag(mode), rate);
    return buf;
}

std::string
packetKey(double think)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "packet/s6/t%g", think);
    return buf;
}

std::uint64_t
omegaDigest(double compute, double acceptance,
            const std::vector<double> &stage_loads)
{
    std::string text = hexDouble(compute) + ' ' + hexDouble(acceptance);
    for (const double load : stage_loads) {
        text += ' ' + hexDouble(load);
    }
    return fnv1a(text);
}

std::uint64_t
packetDigest(double compute, double latency, double link_load)
{
    return fnv1a(hexDouble(compute) + ' ' + hexDouble(latency) + ' ' +
                 hexDouble(link_load));
}

double
ports(unsigned dim, unsigned stages)
{
    return std::pow(static_cast<double>(dim), static_cast<double>(stages));
}

/** One checked output of a call. */
struct Output
{
    std::string key;
    std::uint64_t digest = 0;
    double error = 0.0;
    double portCycles = 0.0;
};

std::vector<Output>
runCall(const Call &call, std::uint64_t seed)
{
    std::vector<Output> out;
    const auto add = [&](const NetworkValidationPoint &p) {
        out.push_back({omegaKey(p.stages, p.switchDim, p.mode, p.rate),
                       omegaDigest(p.simCompute, p.simAcceptance,
                                   p.simStageLoads),
                       p.computeErrorPercent(),
                       ports(p.switchDim, p.stages) *
                           static_cast<double>(kCycles)});
    };
    switch (call.kind) {
      case Call::Kind::Sweep:
        for (const NetworkValidationPoint &p : networkValidationSweep(
                 kRates, call.size, call.stages, call.mode, kCycles,
                 seed)) {
            add(p);
        }
        break;
      case Call::Kind::Point:
        add(validateNetworkPoint(call.value, call.size, call.stages,
                                 call.mode, kCycles, seed, call.dim));
        break;
      case Call::Kind::Packet: {
        const PacketValidationPoint p = validatePacketPoint(
            call.value, 1, 4, call.stages, kCycles, seed);
        out.push_back(
            {packetKey(call.value),
             packetDigest(p.simCompute, p.simLatency, p.simLinkLoad),
             p.computeErrorPercent(),
             ports(2, call.stages) * static_cast<double>(kCycles)});
        break;
      }
    }
    return out;
}

struct PassStats
{
    double wall = 0.0;
    double portCycles = 0.0;
    double absErrorSum = 0.0;
    std::size_t points = 0;
    std::vector<double> callUs;
};

PassStats
runPass(const std::vector<Call> &calls, std::uint64_t seed,
        ReferenceSet &refs, RunResult &result)
{
    PassStats pass;
    std::vector<std::vector<Output>> outputs(calls.size());
    pass.callUs.resize(calls.size());
    // Every pass solves the model afresh, as a first pass would.
    clearSolverCache();
    const Clock::time_point start = Clock::now();
    parallelFor(calls.size(), [&](std::size_t i) {
        const Clock::time_point call = Clock::now();
        outputs[i] = runCall(calls[i], seed);
        pass.callUs[i] = secondsSince(call) * 1e6;
    });
    pass.wall = secondsSince(start);
    for (const std::vector<Output> &list : outputs) {
        for (const Output &o : list) {
            checkAgainstReference(refs, o.key, o.digest, o.error, result);
            pass.portCycles += o.portCycles;
            pass.absErrorSum += std::fabs(o.error);
            ++pass.points;
        }
    }
    return pass;
}

/** One point of the traced replay: a simulator run plus its model. */
struct LayerPoint
{
    Call call;
    double rate = 0.0;
    unsigned dim = 2;
    Output output;
    std::uint64_t attempts = 0;
    std::uint64_t accepted = 0;
};

std::vector<LayerPoint>
layerPoints(const std::vector<Call> &calls)
{
    std::vector<LayerPoint> points;
    for (const Call &call : calls) {
        if (call.kind == Call::Kind::Sweep) {
            for (const double rate : kRates) {
                points.push_back({call, rate, 2, {}, 0, 0});
            }
        } else if (call.kind == Call::Kind::Point) {
            points.push_back({call, call.value, call.dim, {}, 0, 0});
        } else {
            points.push_back({call, 0.0, 2, {}, 0, 0});
        }
    }
    return points;
}

/** validateNetworkPoint()/validatePacketPoint() call by call. */
void
replayPoint(LayerPoint &point, std::uint64_t seed, SpanRecorder &spans)
{
    const Call &call = point.call;
    const std::uint64_t group = spans.newGroup();
    const SpanRecorder::Scope whole(spans, "point", group);
    if (call.kind == Call::Kind::Packet) {
        PacketNetConfig config;
        config.stages = call.stages;
        config.meanThink = call.value;
        config.requestWords = 1;
        config.responseWords = 4;
        config.seed = seed;
        PacketNetStats stats;
        {
            const SpanRecorder::Scope s(spans, "net.packet", group);
            PacketOmegaNetwork network(config);
            stats = network.run(kCycles);
        }
        RawPacketSolution model;
        {
            const SpanRecorder::Scope s(spans, "core.packet_solve", group);
            model = solveRawPacketPoint(call.value, 1, 4, call.stages,
                                        config.memoryCycles);
        }
        const double sim = stats.computeFraction;
        point.output = {packetKey(call.value),
                        packetDigest(sim, stats.meanLatency,
                                     stats.linkLoad),
                        sim > 0.0
                            ? 100.0 * (model.computeFraction - sim) / sim
                            : 0.0,
                        ports(2, call.stages) *
                            static_cast<double>(kCycles)};
        return;
    }
    OmegaConfig config;
    config.stages = call.stages;
    config.switchDim = point.dim;
    config.meanThink = 1.0 / point.rate;
    config.messageCycles = call.size;
    config.mode = call.mode;
    config.seed = seed;
    OmegaStats stats;
    {
        const std::string layer = point.dim == 2
            ? "net.omega.s" + std::to_string(call.stages)
            : "net.omega.k4s" + std::to_string(call.stages);
        const SpanRecorder::Scope s(spans, layer, group);
        OmegaNetwork network(config);
        stats = network.run(kCycles);
    }
    double model = 0.0;
    {
        const SpanRecorder::Scope s(spans, "core.patel_solve", group);
        model = solveComputeFractionK(point.rate, call.size, call.stages,
                                      point.dim);
    }
    const double sim = stats.computeFraction;
    point.output = {omegaKey(call.stages, point.dim, call.mode, point.rate),
                    omegaDigest(sim, stats.acceptance, stats.stageLoads),
                    sim > 0.0 ? 100.0 * (model - sim) / sim : 0.0,
                    ports(point.dim, call.stages) *
                        static_cast<double>(kCycles)};
    point.attempts = stats.attempts;
    point.accepted = stats.accepted;
}

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
        checkAgainstReference(refs, p.output.key, p.output.digest,
                              p.output.error, result);
    }
    return wall;
}

void
tracedRun(const std::vector<Call> &calls, const Options &options,
          ReferenceSet &refs, RunResult &result)
{
    const PassStats untraced = runPass(calls, options.seed, refs, result);

    std::vector<LayerPoint> points = layerPoints(calls);
    SpanRecorder spans;
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
    std::map<std::string, double> port_cycles;
    double attempts = 0.0, accepted = 0.0, patel_calls = 0.0;
    for (const LayerPoint &p : points) {
        if (p.call.kind == Call::Kind::Packet) {
            port_cycles["net.packet"] += p.output.portCycles;
            continue;
        }
        ++patel_calls;
        attempts += static_cast<double>(p.attempts);
        accepted += static_cast<double>(p.accepted);
        if (p.dim == 2) {
            port_cycles["net.omega.s" + std::to_string(p.call.stages)] +=
                p.output.portCycles;
        }
    }
    for (const unsigned stages : {4u, 6u, 8u}) {
        const std::string span = "net.omega.s" + std::to_string(stages);
        layers.set("net.omega_ns_per_port_cycle.s" + std::to_string(stages),
                   spans.totalSeconds(span) / port_cycles[span] * 1e9);
    }
    layers.set("net.packet_ns_per_port_cycle",
               spans.totalSeconds("net.packet") /
                   port_cycles["net.packet"] * 1e9);
    layers.set("net.acceptance", accepted / attempts);
    layers.set("core.patel_solve_us",
               spans.totalSeconds("core.patel_solve") / patel_calls * 1e6);
    layers.set("trace.overhead_pct",
               100.0 * (wall_on - wall_off) / wall_off);
    finishTraced(spans, options, layers, result);
}

} // namespace

void
runNetValidate(const Options &options, bool record, RunResult &result)
{
    const std::string path = referencePath(options, "net-validate");
    const std::vector<Call> calls = gridCalls();
    ReferenceSet refs;
    EndToEnd e2e;
    e2e.setupS = medianSetupSeconds(3, [&] {
        refs.load(path, options.seed);
        // Warm every lane with a stage-6 point.
        parallelFor(benchLanes(), [&](std::size_t) {
            (void)validateNetworkPoint(0.02, 16.0, 6, NetMode::Circuit,
                                       kCycles, options.seed);
        });
    });
    if (record) {
        if (!refs.empty()) {
            throw std::runtime_error(path + " already holds seed " +
                                     std::to_string(options.seed));
        }
        (void)runPass(calls, options.seed, refs, result);
        if (!result.correct()) {
            throw std::runtime_error("recording pass failed");
        }
        refs.append(path, options.seed);
        return;
    }
    noteReference(refs, result);
    if (options.trace) {
        tracedRun(calls, options, refs, result);
        return;
    }

    std::vector<double> cycle_rates, call_rates, call_us;
    double error = 0.0;
    const Clock::time_point start = Clock::now();
    do {
        const PassStats pass = runPass(calls, options.seed, refs, result);
        cycle_rates.push_back(pass.portCycles / pass.wall);
        call_rates.push_back(static_cast<double>(calls.size()) / pass.wall);
        call_us.insert(call_us.end(), pass.callUs.begin(),
                       pass.callUs.end());
        error = pass.absErrorSum / static_cast<double>(pass.points);
    } while (secondsSince(start) < options.seconds);

    e2e.netPortCyclesPerS = median(cycle_rates);
    // The network simulators' events are port-cycles.
    e2e.simEventsPerS = e2e.netPortCyclesPerS;
    e2e.modelErrPct = error;
    e2e.svcQps = median(call_rates);
    e2e.svcP50Us = quantile(call_us, 0.50);
    addEndToEnd(e2e, result);
}

SampleStats
runNetworkSample(const Options &options, double seconds,
                 RunResult &result)
{
    ReferenceSet refs;
    refs.load(referencePath(options, "net-validate"), options.seed);
    // One call per point, so the pool balances its lanes and the rate
    // averages over the cores rather than resting on one.
    std::vector<Call> calls;
    for (const NetMode mode : {NetMode::UnitRequest, NetMode::Circuit}) {
        for (const double rate : kRates) {
            calls.push_back({Call::Kind::Point, 6, 16.0, mode, rate, 2});
        }
    }
    std::vector<double> rates;
    PassStats pass;
    const Clock::time_point start = Clock::now();
    do {
        pass = runPass(calls, options.seed, refs, result);
        rates.push_back(pass.portCycles / pass.wall);
    } while (secondsSince(start) < seconds);
    return {median(rates), pass.absErrorSum, pass.points};
}

} // namespace perfbench
