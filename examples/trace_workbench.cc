/**
 * @file
 * Trace workbench: the full experimental loop on one synthetic
 * application — generate a multiprocessor trace, measure its workload
 * parameters, simulate every scheme on it, predict each scheme with
 * the analytical model, and compare. Also writes the trace to disk
 * and reads it back, exercising the trace I/O path.
 */

#include <cstdio>
#include <iostream>

#include "core/swcc.hh"
#include "sim/mp/param_extractor.hh"
#include "sim/mp/system.hh"
#include "sim/synth/app_profiles.hh"
#include "sim/synth/trace_generator.hh"
#include "sim/trace/trace_io.hh"

int
main()
{
    using namespace swcc;

    // 1. Generate a 4-processor pops-like trace with flush
    //    instructions (so the Software-Flush scheme is exercisable).
    const SyntheticWorkloadConfig workload =
        profileConfig(AppProfile::PopsLike, 4, 100'000, 2026, true);
    std::cout << "Generating " << workload.name << " trace ("
              << workload.numCpus << " CPUs, "
              << workload.instructionsPerCpu
              << " instructions/CPU)...\n";
    const TraceBuffer trace = generateTrace(workload);
    std::cout << "  " << trace.size() << " events\n\n";

    // 2. Round-trip through the binary trace format.
    const std::string path = "/tmp/swcc_workbench_trace.swcc";
    saveTrace(trace, path);
    const TraceBuffer loaded = loadTrace(path);
    std::cout << "Saved and reloaded " << path << " ("
              << loaded.size() << " events)\n\n";
    std::remove(path.c_str());

    // 3. Measure the workload parameters the model needs.
    CacheConfig cache;
    cache.sizeBytes = 64 * 1024;
    cache.blockBytes = 16;
    const SharedClassifier shared = workload.sharedClassifier();
    const ExtractedParams extracted =
        extractParams(loaded, cache, shared);

    std::cout << "Measured workload parameters (paper Table 2):\n\n";
    TextTable params_table({"parameter", "value"});
    for (ParamId id : kAllParams) {
        params_table.addRow(
            {std::string(paramName(id)),
             formatNumber(getParam(extracted.params, id), 4)});
    }
    params_table.print(std::cout);

    // 4. Simulate every scheme and compare with the model prediction.
    std::cout << "\nSimulation vs model (4 CPUs, 64KB caches):\n\n";
    TextTable result({"scheme", "sim power", "model power", "error %",
                      "sim bus util"});
    for (Scheme scheme : kAllSchemes) {
        warnDefaultedParams(extracted, scheme);
        MultiprocessorSystem system(scheme, cache, 4, shared);
        const SimStats stats = system.run(loaded);
        const BusSolution model =
            evaluateBus(scheme, extracted.params, 4);
        const double sim_power = stats.processingPower();
        result.addRow(
            {std::string(schemeName(scheme)),
             formatNumber(sim_power, 3),
             formatNumber(model.processingPower, 3),
             formatNumber(
                 100.0 * (model.processingPower - sim_power) / sim_power,
                 1),
             formatNumber(stats.busUtilization(), 3)});
    }
    result.print(std::cout);

    std::cout << "\nThe model consumes eleven numbers measured from "
                 "the trace and reproduces the\nsimulator's scheme "
                 "ranking (and near-absolute power) in microseconds "
                 "rather\nthan seconds — the paper's core "
                 "methodological point.\n";
    return 0;
}
