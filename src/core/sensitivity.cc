#include "core/sensitivity.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "core/obs/progress.hh"
#include "core/parallel.hh"
#include "core/scheme_evaluator.hh"

namespace swcc
{

namespace
{

/** Execution time (cycles/instruction with contention) at one point. */
Cycles
executionTime(Scheme scheme, const WorkloadParams &params,
              unsigned processors)
{
    return evaluateBus(scheme, params, processors).cyclesPerInstruction();
}

/** Low->high percent change with companions fixed in @p base. */
SensitivityEntry
pinnedSensitivity(Scheme scheme, ParamId param,
                  const WorkloadParams &base, unsigned processors)
{
    SensitivityEntry entry;
    entry.scheme = scheme;
    entry.param = param;

    WorkloadParams low = base;
    setParam(low, param, paramLevelValue(param, Level::Low));
    WorkloadParams high = base;
    setParam(high, param, paramLevelValue(param, Level::High));

    entry.timeLow = executionTime(scheme, low, processors);
    entry.timeHigh = executionTime(scheme, high, processors);
    entry.percentChange =
        100.0 * (entry.timeHigh - entry.timeLow) / entry.timeLow;
    return entry;
}

} // namespace

SensitivityEntry
parameterSensitivity(Scheme scheme, ParamId param,
                     const SensitivityConfig &config)
{
    if (!config.averageOverGrid) {
        return pinnedSensitivity(scheme, param, middleParams(),
                                 config.processors);
    }

    // Average the low->high change over a small companion grid of the
    // parameters the paper singles out as load-bearing.
    constexpr std::array<ParamId, 3> companions = {
        ParamId::Msdat, ParamId::Shd, ParamId::InvApl,
    };

    SensitivityEntry total;
    total.scheme = scheme;
    total.param = param;
    unsigned count = 0;
    for (Level a : kAllLevels) {
        for (Level b : kAllLevels) {
            for (Level c : kAllLevels) {
                WorkloadParams base = middleParams();
                const std::array<Level, 3> levels = {a, b, c};
                bool skip = false;
                for (std::size_t i = 0; i < companions.size(); ++i) {
                    if (companions[i] == param) {
                        // The varied parameter is not a companion.
                        skip = levels[i] != Level::Middle;
                    } else {
                        setParam(base, companions[i],
                                 paramLevelValue(companions[i], levels[i]));
                    }
                }
                if (skip) {
                    continue;
                }
                const SensitivityEntry entry = pinnedSensitivity(
                    scheme, param, base, config.processors);
                total.timeLow += entry.timeLow;
                total.timeHigh += entry.timeHigh;
                total.percentChange += entry.percentChange;
                ++count;
            }
        }
    }
    total.timeLow /= count;
    total.timeHigh /= count;
    total.percentChange /= count;
    return total;
}

std::vector<SensitivityEntry>
sensitivityTable(const SensitivityConfig &config)
{
    // Table 8 column order: the paper's four schemes only — the
    // extension family is not part of the Table 8 reproduction.
    constexpr std::array<Scheme, kNumPaperSchemes> column_order = {
        Scheme::SoftwareFlush, Scheme::NoCache, Scheme::Dragon,
        Scheme::Base,
    };

    // Each (parameter, scheme) cell — including its 27-point companion
    // grid in grid mode — is an independent evaluation; run the cells
    // across the pool, each writing its own pre-assigned slot so the
    // table is bit-identical to the serial loop.
    const std::size_t n = kNumParams * column_order.size();
    obs::ProgressReporter progress("sensitivity", n);
    return parallelMap(n, [&](std::size_t i) {
        const SensitivityEntry entry = parameterSensitivity(
            column_order[i % column_order.size()],
            kAllParams[i / column_order.size()], config);
        progress.tick();
        return entry;
    });
}

std::vector<SensitivityEntry>
rankedSensitivities(const std::vector<SensitivityEntry> &table,
                    Scheme scheme)
{
    std::vector<SensitivityEntry> ranked;
    for (const SensitivityEntry &entry : table) {
        if (entry.scheme == scheme) {
            ranked.push_back(entry);
        }
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const SensitivityEntry &a, const SensitivityEntry &b) {
                  return std::abs(a.percentChange) >
                      std::abs(b.percentChange);
              });
    return ranked;
}

} // namespace swcc
