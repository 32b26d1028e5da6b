/**
 * @file
 * swcc_bench: runs one benchmark workload and prints its metrics.
 *
 *   swcc_bench --workload NAME --seed N --seconds S --trace 0|1
 *   swcc_bench --workload NAME --seed N --record   (append references)
 *   swcc_bench --self-test --seed N                (check the checks)
 *
 * The last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics; the line before it is the
 * run's provenance. The exit code is 0 only when every output check
 * passed.
 */

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common.hh"
#include "core/obs/json.hh"
#include "core/parallel.hh"
#include "core/simd.hh"
#include "spans.hh"
#include "workloads.hh"

#ifndef SWCC_BENCH_BUILD_TYPE
#define SWCC_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef SWCC_BENCH_COMPILER
#define SWCC_BENCH_COMPILER "unknown"
#endif

namespace perfbench
{

void
addEndToEnd(const EndToEnd &e2e, RunResult &result)
{
    result.add("setup_s", e2e.setupS, "s");
    result.add("sim_events_per_s", e2e.simEventsPerS, "events/s");
    result.add("model_err_pct", e2e.modelErrPct, "%");
    result.add("net_port_cycles_per_s", e2e.netPortCyclesPerS,
               "port-cycles/s");
    result.add("svc_qps", e2e.svcQps, "queries/s");
    result.add("svc_p50_us", e2e.svcP50Us, "us");
    result.add("peak_rss_mb", peakRssMb(), "MiB");
}

std::string
schemeTag(swcc::Scheme scheme)
{
    std::string tag(swcc::schemeName(scheme));
    for (char &c : tag) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    return tag;
}

const std::vector<PerLayer::Spec> &
PerLayer::specs()
{
    static const std::vector<Spec> list = [] {
        using swcc::Scheme;
        std::vector<Spec> out = {
            {"synth.generate_s", "s"},
            {"trace.analyze_s", "s"},
        };
        const Scheme schemes[] = {
            Scheme::Dragon, Scheme::Mesi,          Scheme::Moesi,
            Scheme::Hybrid, Scheme::Base,          Scheme::NoCache,
            Scheme::SoftwareFlush,
        };
        for (const Scheme scheme : schemes) {
            const std::string t = schemeTag(scheme);
            out.push_back({"cache.access_ns." + t, "ns/event"});
            out.push_back({"mp.run_ns." + t, "ns/event"});
            out.push_back({"mp.loop_ns." + t, "ns/event"});
            out.push_back({"mp.steals." + t, "count"});
            out.push_back({"cache.miss_ratio." + t, "ratio"});
            out.push_back({"bus.transactions." + t, "count"});
            out.push_back({"bus.busy_frac." + t, "ratio"});
        }
        const std::vector<Spec> rest = {
            {"mp.extract_s", "s"},
            {"mp.events", "count"},
            {"core.eval_bus_us", "us"},
            {"core.patel_solve_us", "us"},
            {"core.solver_cache.hits", "count"},
            {"core.solver_cache.misses", "count"},
            {"core.solver_cache.evictions", "count"},
            {"core.solver_cache.hit_ratio", "ratio"},
            {"parallel.tasks", "count"},
            {"parallel.idle_s", "s"},
            {"net.omega_ns_per_port_cycle.s4", "ns"},
            {"net.omega_ns_per_port_cycle.s6", "ns"},
            {"net.omega_ns_per_port_cycle.s8", "ns"},
            {"net.packet_ns_per_port_cycle", "ns"},
            {"net.acceptance", "ratio"},
            {"svc.encode_ns", "ns"},
            {"svc.decode_ns", "ns"},
            {"svc.kernel_batch_us", "us"},
            {"svc.queue_wait_us.p50", "us"},
            {"svc.queue_wait_us.p99", "us"},
            {"svc.batch_mean", "count"},
            {"svc_p99_us", "us"},
            {"loadgen.late_us.p99", "us"},
            {"trace.overhead_pct", "%"},
            {"failed_frac", "ratio"},
        };
        out.insert(out.end(), rest.begin(), rest.end());
        return out;
    }();
    return list;
}

PerLayer::PerLayer()
{
    for (const Spec &spec : specs()) {
        values_[spec.name] = 0.0;
    }
}

void
PerLayer::set(const std::string &name, double value)
{
    const auto it = values_.find(name);
    if (it == values_.end()) {
        throw std::logic_error("unknown per-layer metric " + name);
    }
    it->second = value;
}

void
PerLayer::addTo(RunResult &result) const
{
    for (const Spec &spec : specs()) {
        result.add(spec.name, values_.at(spec.name), spec.unit);
    }
}

std::string
referencePath(const Options &options, const std::string &workload)
{
    return options.referenceDir + "/" + workload + ".txt";
}

void
noteReference(const ReferenceSet &refs, RunResult &result)
{
    result.note("reference", refs.empty()
                                 ? "none recorded for this seed: passes "
                                   "are checked against the first"
                                 : "recorded (" +
                                     std::to_string(refs.size()) +
                                     " outputs)");
}

CounterSnapshot
CounterSnapshot::now()
{
    return {swcc::solverCacheStats(), swcc::globalPool().stats().totals()};
}

void
setCounterDeltas(const CounterSnapshot &before, PerLayer &layers)
{
    const CounterSnapshot after = CounterSnapshot::now();
    const double hits =
        static_cast<double>(after.cache.hits - before.cache.hits);
    const double misses =
        static_cast<double>(after.cache.misses - before.cache.misses);
    layers.set("core.solver_cache.hits", hits);
    layers.set("core.solver_cache.misses", misses);
    layers.set("core.solver_cache.evictions",
               static_cast<double>(after.cache.evictions -
                                   before.cache.evictions));
    layers.set("core.solver_cache.hit_ratio",
               hits + misses > 0.0 ? hits / (hits + misses) : 0.0);
    layers.set("parallel.tasks",
               static_cast<double>(after.pool.tasksExecuted -
                                   before.pool.tasksExecuted));
    layers.set("parallel.idle_s",
               static_cast<double>(after.pool.idleNs - before.pool.idleNs) *
                   1e-9);
}

void
finishTraced(const SpanRecorder &spans, const Options &options,
             PerLayer &layers, RunResult &result)
{
    const std::string path = options.outDir + "/" + options.workload +
        "-seed" + std::to_string(options.seed) + ".trace.json";
    result.attempt();
    const std::string error = spans.writeChromeTrace(path);
    if (!error.empty()) {
        result.fail("trace file: " + error);
    }
    result.note("trace_file", path);
    // Self time per layer, seconds, on its own line before the result.
    std::string line = "{\"self_s\": {";
    bool first = true;
    for (const auto &[name, seconds] : spans.selfSeconds()) {
        char value[32];
        std::snprintf(value, sizeof value, "%.6f", seconds);
        line += (first ? "\"" : ", \"") + name + "\": " + value;
        first = false;
    }
    std::cout << line << "}}" << std::endl;
    layers.set("failed_frac", static_cast<double>(result.failed()) /
                                  static_cast<double>(result.attempted()));
    layers.addTo(result);
}

} // namespace perfbench

namespace
{

using namespace perfbench;

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "swcc_bench: " << error << "\n"
              << "usage: swcc_bench --workload validate-hw|validate-sw|"
                 "net-validate|swccd-mix --seed N --seconds S "
                 "--trace 0|1 [--record] [--reference-dir DIR] "
                 "[--out-dir DIR] [--commit ID]\n"
              << "       swcc_bench --self-test --seed N\n";
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &text, const char *what)
{
    try {
        std::size_t used = 0;
        const unsigned long long value = std::stoull(text, &used);
        if (used == text.size() && text[0] != '-') {
            return value;
        }
    } catch (const std::exception &) {
    }
    usage(std::string("bad ") + what + ": " + text);
}

std::string
provenance(const Options &options, bool self_test,
           const std::map<std::string, std::string> &notes = {})
{
    using swcc::obs::jsonEscape;
    std::string out = "{\"provenance\": {";
    out += "\"workload\": \"" +
        jsonEscape(self_test ? "self-test" : options.workload) + "\"";
    out += ", \"seed\": " + std::to_string(options.seed);
    out += ", \"run_seconds\": " + std::to_string(options.seconds);
    out += ", \"trace\": " + std::string(options.trace ? "1" : "0");
    out += ", \"nproc\": " + std::to_string(swcc::hardwareThreads());
    out += ", \"lanes\": " + std::to_string(benchLanes());
    out += ", \"isa\": \"" +
        std::string(swcc::simd::isaName(swcc::simd::activeIsa())) + "\"";
    out += ", \"compiler\": \"" + jsonEscape(SWCC_BENCH_COMPILER) + "\"";
    out += ", \"build_type\": \"" + jsonEscape(SWCC_BENCH_BUILD_TYPE) +
        "\"";
    out += ", \"swcc_obs\": " +
        std::string(SWCC_OBS_ENABLED ? "true" : "false");
    out += ", \"commit\": \"" + jsonEscape(options.commit) + "\"";
    for (const auto &[key, value] : notes) {
        out += ", \"" + jsonEscape(key) + "\": \"" + jsonEscape(value) +
            "\"";
    }
    out += "}}";
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    bool record = false;
    bool self_test = false;
    bool have_seed = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage("missing value for " + arg);
            }
            return argv[++i];
        };
        if (arg == "--workload") {
            options.workload = value();
        } else if (arg == "--seed") {
            options.seed = parseUnsigned(value(), "seed");
            have_seed = true;
        } else if (arg == "--seconds") {
            options.seconds =
                static_cast<double>(parseUnsigned(value(), "seconds"));
        } else if (arg == "--trace") {
            const std::string trace = value();
            if (trace != "0" && trace != "1") {
                usage("--trace takes 0 or 1");
            }
            options.trace = trace == "1";
            have_trace = true;
        } else if (arg == "--record") {
            record = true;
        } else if (arg == "--self-test") {
            self_test = true;
        } else if (arg == "--reference-dir") {
            options.referenceDir = value();
        } else if (arg == "--out-dir") {
            options.outDir = value();
        } else if (arg == "--commit") {
            options.commit = value();
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (!have_seed) {
        usage("--seed is required");
    }
    if (!self_test && !record && !have_trace) {
        usage("--trace is required");
    }
    if (options.seconds < 1.0) {
        usage("--seconds must be at least 1");
    }

    // One process, no more lanes than the host has (at most four).
    swcc::setThreadCount(benchLanes());

    try {
        if (self_test) {
            std::cout << provenance(options, true) << std::endl;
            const bool ok = selfTestChecks(options);
            std::cout << (ok ? "self-test: both corruptions reported"
                             : "self-test: FAILED")
                      << std::endl;
            return ok ? 0 : 1;
        }
        RunResult result;
        const std::string &w = options.workload;
        if (w == "validate-hw") {
            runValidateHw(options, record, result);
        } else if (w == "validate-sw") {
            runValidateSw(options, record, result);
        } else if (w == "net-validate") {
            runNetValidate(options, record, result);
        } else if (w == "swccd-mix" && !record) {
            runSwccdMix(options, result);
        } else {
            usage("unknown workload " + w);
        }
        if (record) {
            std::cout << "recorded " << w << " seed " << options.seed
                      << std::endl;
            return 0;
        }
        std::cout << provenance(options, false, result.notes()) << "\n"
                  << result.json() << std::endl;
        return result.correct() ? 0 : 1;
    } catch (const std::exception &error) {
        std::cerr << "swcc_bench: " << error.what() << '\n';
        return 1;
    }
}
