#include "core/network_model.hh"

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "core/obs/metrics.hh"
#include "core/simd.hh"
#include "core/simd_kernels.hh"

namespace swcc
{

namespace
{

#if SWCC_OBS_ENABLED
/**
 * Records one bisection solve: how many iterations it took and the
 * bracket width it converged to. Registration is a one-time static;
 * the per-solve cost is two relaxed increments and one histogram
 * observe.
 */
void
noteNetworkSolve(int iterations, double width)
{
    static obs::Counter &solves =
        obs::metrics().counter("solver.network.solves");
    static obs::Counter &iters =
        obs::metrics().counter("solver.network.iterations");
    static obs::Histogram &residual = obs::metrics().histogram(
        "solver.network.bracket_width",
        {1e-15, 1e-13, 1e-11, 1e-9, 1e-6, 1e-3});
    solves.add(1);
    iters.add(static_cast<std::uint64_t>(iterations));
    residual.observe(width);
}

/** Records one warm-bracket probe outcome in the batched sweep. */
void
noteWarmProbe(bool hit)
{
    static obs::Counter &hits =
        obs::metrics().counter("solver.network.warm_hits");
    static obs::Counter &misses =
        obs::metrics().counter("solver.network.warm_misses");
    (hit ? hits : misses).add(1);
}
#endif

/// -1 = consult SWCC_WARM_BRACKET, 0 = forced off, 1 = forced on.
std::atomic<int> warm_bracket_override{-1};

bool
envDisablesWarmBracket()
{
    const char *raw = std::getenv("SWCC_WARM_BRACKET");
    if (raw == nullptr)
        return false;
    return std::strcmp(raw, "off") == 0 || std::strcmp(raw, "OFF") == 0 ||
           std::strcmp(raw, "0") == 0 || std::strcmp(raw, "false") == 0 ||
           std::strcmp(raw, "no") == 0;
}

/**
 * Sign of the bisection residual g(u) = P(1 - u)/(m t) - u, with the
 * exact arithmetic (order and operations) of the sweep kernels, so a
 * warm-bracket probe reaches the same verdict cold bisection reached
 * (or would reach) at the same point.
 */
bool
residualPositive(double u, double demand, unsigned stages)
{
    double m = 1.0 - u;
    for (unsigned s = 0; s < stages; ++s) {
        m = patelStageStep(m);
    }
    return m / demand - u > 0.0;
}

struct Bracket
{
    double lo;
    double hi;
    /** Bisection depth of the bracket: hi - lo == 2^-depth. */
    unsigned depth;
};

/**
 * Bisection iterations from the full [0, 1] bracket until
 * hi - lo < 1e-13. All bracket endpoints are exact dyadic rationals,
 * so the width halves *exactly* every iteration and every cell —
 * regardless of its residual — converges at this same depth (44).
 * That makes per-iteration convergence checks unnecessary: a cell
 * seeded at depth d needs exactly (target - d) more iterations.
 */
unsigned
targetBisectionDepth()
{
    unsigned depth = 0;
    for (double width = 1.0; !(width < 1e-13); width *= 0.5) {
        ++depth;
    }
    return depth;
}

/**
 * Warm-bracket probe: finds a dyadic interval [k/2^w, (k+1)/2^w]
 * around @p hint whose endpoint residual signs certify it as the
 * interval cold bisection from [0, 1] reaches at depth w.
 *
 * Why this preserves bitwise identity: cold bisection's bracket after
 * w iterations is always a depth-w dyadic interval, its endpoints are
 * exact doubles, and all its sign decisions are made by the same
 * residualPositive() arithmetic used here. Because |g'| >= 1, the
 * residual's magnitude at depth-w grid points more than one cell from
 * the root (>= 2^-w for w <= 16) dwarfs evaluation noise (~1e-15), so
 * the computed signs are strictly decreasing across the grid and
 * exactly one interval passes the endpoint test — the one on the cold
 * trajectory. Boundary endpoints auto-pass (cold never evaluates 0 or
 * 1), which also reproduces cold behaviour for degenerate residuals
 * (e.g. NaN demand) that push the bracket onto a domain edge.
 * Resuming bisection from that interval therefore replays the exact
 * remaining sequence of midpoints, and the converged bracket — and
 * result — is bit-for-bit the cold one.
 */
bool
probeWarmBracket(double hint, double demand, unsigned stages,
                 Bracket &out)
{
    if (!(hint > 0.0) || !(hint < 1.0)) {
        return false;
    }
    static constexpr int kDepths[] = {16, 12, 8, 4};
    int budget = 8; // residual evaluations; each costs one iteration.
    for (const int depth : kDepths) {
        const double scale = std::ldexp(1.0, depth);
        const std::uint64_t grid = std::uint64_t{1} << depth;
        std::uint64_t k = static_cast<std::uint64_t>(hint * scale);
        if (k >= grid) {
            k = grid - 1;
        }
        const double a = std::ldexp(static_cast<double>(k), -depth);
        const double b = std::ldexp(static_cast<double>(k + 1), -depth);
        if (budget < 2) {
            return false;
        }
        bool sign_a = true; // g(0) counts as positive.
        if (k > 0) {
            sign_a = residualPositive(a, demand, stages);
            --budget;
        }
        bool sign_b = false; // g(1) counts as non-positive.
        if (k + 1 < grid) {
            sign_b = residualPositive(b, demand, stages);
            --budget;
        }
        if (sign_a && !sign_b) {
            out = {a, b, static_cast<unsigned>(depth)};
            return true;
        }
        if (budget < 1) {
            return false;
        }
        if (!sign_a && k > 0) {
            // Root is left of a; [a - 2^-w, a] already passes on the
            // right (g(a) <= 0), test its left endpoint.
            const double a2 =
                std::ldexp(static_cast<double>(k - 1), -depth);
            bool sign_a2 = true;
            if (k - 1 > 0) {
                sign_a2 = residualPositive(a2, demand, stages);
                --budget;
            }
            if (sign_a2) {
                out = {a2, a, static_cast<unsigned>(depth)};
                return true;
            }
        } else if (sign_b && k + 1 < grid) {
            // Root is right of b; [b, b + 2^-w] passes on the left.
            const double b2 =
                std::ldexp(static_cast<double>(k + 2), -depth);
            bool sign_b2 = false;
            if (k + 2 < grid) {
                sign_b2 = residualPositive(b2, demand, stages);
                --budget;
            }
            if (!sign_b2) {
                out = {b, b2, static_cast<unsigned>(depth)};
                return true;
            }
        }
    }
    return false;
}

/** Lanes per sweep window: four AVX2 vectors, eight NEON vectors. */
constexpr unsigned kWindowLanes = 16;

/**
 * Branchless bit-exact select: @p a when @p take_a, else @p b. The
 * bracket-update sign is a data-dependent coin flip, so a conditional
 * move instead of a branch saves a ~50% misprediction rate on large
 * batches (small repeated batches hide this — the predictor memorizes
 * the whole sweep's branch sequence).
 */
inline double
selectDouble(bool take_a, double a, double b)
{
    std::uint64_t ua;
    std::uint64_t ub;
    std::memcpy(&ua, &a, sizeof ua);
    std::memcpy(&ub, &b, sizeof ub);
    const std::uint64_t keep = take_a ? ~std::uint64_t{0} : 0;
    const std::uint64_t r = (ua & keep) | (ub & ~keep);
    double out;
    std::memcpy(&out, &r, sizeof out);
    return out;
}

/**
 * Scalar fallback for @p iters sweep iterations over the lane window;
 * the arithmetic mirrors the vector kernels (and patelStageStep)
 * exactly. Iteration-outer so the lanes' independent dependency
 * chains overlap, with branchless bracket updates.
 */
void
bisectSweepScalar(double *lo, double *hi, const double *demand,
                  const double *stagesd, unsigned lanes, unsigned iters)
{
    for (unsigned it = 0; it < iters; ++it) {
        for (unsigned l = 0; l < lanes; ++l) {
            const double mid = 0.5 * (lo[l] + hi[l]);
            double m = 1.0 - mid;
            for (double s = 0.0; s < stagesd[l]; s += 1.0) {
                m = patelStageStep(m);
            }
            const bool gt = m / demand[l] - mid > 0.0;
            lo[l] = selectDouble(gt, mid, lo[l]);
            hi[l] = selectDouble(gt, hi[l], mid);
        }
    }
}

} // namespace

void
setWarmBracketEnabled(bool enabled)
{
    warm_bracket_override.store(enabled ? 1 : 0,
                                std::memory_order_relaxed);
}

bool
warmBracketEnabled()
{
    const int mode = warm_bracket_override.load(std::memory_order_relaxed);
    if (mode >= 0) {
        return mode != 0;
    }
    return !envDisablesWarmBracket();
}

double
patelStageStep(double m)
{
    const double half = m / 2.0;
    return 1.0 - (1.0 - half) * (1.0 - half);
}

double
patelStageStepK(double m, unsigned k)
{
    if (k < 2) {
        throw std::invalid_argument("switch dimension must be >= 2");
    }
    const double per_input = m / static_cast<double>(k);
    return 1.0 - std::pow(1.0 - per_input, static_cast<double>(k));
}

double
solveComputeFractionK(double rate, double size, unsigned stages,
                      unsigned k)
{
    if (rate <= 0.0 || size <= 0.0) {
        throw std::invalid_argument(
            "transaction rate and size must be positive");
    }
    if (stages == 0) {
        throw std::invalid_argument("need at least one network stage");
    }
    if (k < 2) {
        throw std::invalid_argument("switch dimension must be >= 2");
    }

    const double demand = rate * size;
    auto output = [stages, k](double m0) {
        double m = m0;
        for (unsigned i = 0; i < stages; ++i) {
            m = patelStageStepK(m, k);
        }
        return m;
    };
    auto residual = [demand, &output](double u) {
        return output(1.0 - u) / demand - u;
    };

    double lo = 0.0;
    double hi = 1.0;
    int iterations = 0;
    for (int iter = 0; iter < 200; ++iter) {
        iterations = iter + 1;
        const double mid = 0.5 * (lo + hi);
        if (residual(mid) > 0.0) {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo < 1e-13) {
            break;
        }
    }
#if SWCC_OBS_ENABLED
    noteNetworkSolve(iterations, hi - lo);
#else
    (void)iterations;
#endif
    if (!(hi - lo < 1e-6)) {
        throw std::runtime_error(
            "network fixed point failed to bracket U");
    }
    return 0.5 * (lo + hi);
}

unsigned
stagesForProcessorsK(unsigned processors, unsigned k)
{
    if (k < 2) {
        throw std::invalid_argument("switch dimension must be >= 2");
    }
    if (processors < 2) {
        return 1;
    }
    unsigned stages = 0;
    unsigned long long capacity = 1;
    while (capacity < processors) {
        capacity *= k;
        ++stages;
    }
    return stages;
}

double
patelNetworkOutput(double m0, unsigned stages)
{
    double m = m0;
    for (unsigned i = 0; i < stages; ++i) {
        m = patelStageStep(m);
    }
    return m;
}

std::vector<double>
patelStageLoads(double m0, unsigned stages)
{
    std::vector<double> loads;
    loads.reserve(stages + 1);
    double m = m0;
    loads.push_back(m);
    for (unsigned i = 0; i < stages; ++i) {
        m = patelStageStep(m);
        loads.push_back(m);
    }
    return loads;
}

double
solveComputeFraction(double rate, double size, unsigned stages)
{
    if (rate <= 0.0 || size <= 0.0) {
        throw std::invalid_argument(
            "transaction rate and size must be positive");
    }
    if (stages == 0) {
        throw std::invalid_argument("need at least one network stage");
    }

    const double demand = rate * size; // m*t, offered unit-request rate.

    // g(U) = P(1 - U)/(m t) - U; g(0) > 0, g(1) = -1, g decreasing.
    auto residual = [demand, stages](double u) {
        return patelNetworkOutput(1.0 - u, stages) / demand - u;
    };

    double lo = 0.0;
    double hi = 1.0;
    int iterations = 0;
    for (int iter = 0; iter < 200; ++iter) {
        iterations = iter + 1;
        const double mid = 0.5 * (lo + hi);
        if (residual(mid) > 0.0) {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo < 1e-13) {
            break;
        }
    }
#if SWCC_OBS_ENABLED
    noteNetworkSolve(iterations, hi - lo);
#else
    (void)iterations;
#endif
    if (!(hi - lo < 1e-6)) {
        throw std::runtime_error(
            "network fixed point failed to bracket U");
    }
    return 0.5 * (lo + hi);
}

void
solveComputeFractionBatch(const double *rates, const double *sizes,
                          const unsigned *stages, std::size_t count,
                          double *out)
{
    for (std::size_t j = 0; j < count; ++j) {
        if (rates[j] <= 0.0 || sizes[j] <= 0.0) {
            throw std::invalid_argument(
                "transaction rate and size must be positive");
        }
        if (stages[j] == 0) {
            throw std::invalid_argument(
                "need at least one network stage");
        }
    }

    std::vector<double> demand(count);
    for (std::size_t j = 0; j < count; ++j) {
        demand[j] = rates[j] * sizes[j];
    }

    std::vector<double> lo_all(count, 0.0);
    std::vector<double> hi_all(count, 1.0);
    std::vector<int> iters_all(count, 0);

    // Windowed sweep: a fixed block of lanes advances lock-step
    // through the bisection with one kernel call per retirement
    // batch. Every cell's convergence depth is known up front (the
    // bracket width halves exactly per step; see
    // targetBisectionDepth()), so the kernel runs the minimum
    // remaining iteration count of the window in one register-
    // resident call — no per-iteration convergence checks, loads, or
    // stores. Retired lanes are swap-compacted out and refilled from
    // the pending queue, seeding their bracket from the latest
    // converged U via the dyadic warm-bracket probe. Each cell's
    // lo/hi trajectory depends only on its own lane, so compaction
    // and padding never perturb results.
    static const unsigned target_depth = targetBisectionDepth();
    const bool vector = simd::activeIsa() != simd::Isa::Scalar;
    const bool warm = warmBracketEnabled();

    double lane_lo[kWindowLanes];
    double lane_hi[kWindowLanes];
    double lane_demand[kWindowLanes];
    double lane_stages[kWindowLanes];
    unsigned lane_remaining[kWindowLanes];
    int lane_iters[kWindowLanes];
    std::size_t lane_cell[kWindowLanes];

    unsigned active = 0;
    std::size_t next = 0;
    double hint = 0.0;
    bool have_hint = false;

    // Inert padding the kernel can chew on without side effects: the
    // zero-width bracket never moves and is never read back.
    for (unsigned l = 0; l < kWindowLanes; ++l) {
        lane_lo[l] = 0.0;
        lane_hi[l] = 0.0;
        lane_demand[l] = 1.0;
        lane_stages[l] = 1.0;
    }

    const auto refill = [&]() {
        while (active < kWindowLanes && next < count) {
            const unsigned l = active++;
            const std::size_t j = next++;
            lane_cell[l] = j;
            lane_demand[l] = demand[j];
            lane_stages[l] = static_cast<double>(stages[j]);
            lane_lo[l] = 0.0;
            lane_hi[l] = 1.0;
            unsigned start_depth = 0;
            if (warm && have_hint) {
                Bracket bracket;
                const bool hit =
                    probeWarmBracket(hint, demand[j], stages[j], bracket);
                if (hit) {
                    lane_lo[l] = bracket.lo;
                    lane_hi[l] = bracket.hi;
                    start_depth = bracket.depth;
                }
#if SWCC_OBS_ENABLED
                noteWarmProbe(hit);
#endif
            }
            lane_remaining[l] = target_depth - start_depth;
            lane_iters[l] = static_cast<int>(lane_remaining[l]);
        }
    };

    refill();
    while (active > 0) {
        unsigned run = lane_remaining[0];
        for (unsigned l = 1; l < active; ++l) {
            run = std::min(run, lane_remaining[l]);
        }
        if (vector) {
            simd::bisectSweepVector(lane_lo, lane_hi, lane_demand,
                                    lane_stages, kWindowLanes, run);
        } else {
            bisectSweepScalar(lane_lo, lane_hi, lane_demand,
                              lane_stages, kWindowLanes, run);
        }
        for (unsigned l = 0; l < active;) {
            lane_remaining[l] -= run;
            if (lane_remaining[l] == 0) {
                const std::size_t j = lane_cell[l];
                lo_all[j] = lane_lo[l];
                hi_all[j] = lane_hi[l];
                iters_all[j] = lane_iters[l];
                hint = 0.5 * (lane_lo[l] + lane_hi[l]);
                have_hint = true;
                --active;
                lane_lo[l] = lane_lo[active];
                lane_hi[l] = lane_hi[active];
                lane_demand[l] = lane_demand[active];
                lane_stages[l] = lane_stages[active];
                lane_remaining[l] = lane_remaining[active];
                lane_iters[l] = lane_iters[active];
                lane_cell[l] = lane_cell[active];
                lane_lo[active] = 0.0;
                lane_hi[active] = 0.0;
                lane_demand[active] = 1.0;
                lane_stages[active] = 1.0;
            } else {
                ++l;
            }
        }
        refill();
    }

    // Ordered epilogue: observability and the convergence check fire
    // in index order exactly as the per-point solver sequence would.
    for (std::size_t j = 0; j < count; ++j) {
#if SWCC_OBS_ENABLED
        noteNetworkSolve(iters_all[j], hi_all[j] - lo_all[j]);
#endif
        if (!(hi_all[j] - lo_all[j] < 1e-6)) {
            throw std::runtime_error(
                "network fixed point failed to bracket U");
        }
        out[j] = 0.5 * (lo_all[j] + hi_all[j]);
    }
}

NetworkSolution
solveNetwork(const PerInstructionCost &cost, unsigned stages)
{
    if (stages == 0) {
        throw std::invalid_argument("need at least one network stage");
    }
    if (cost.channel < 0.0 || cost.cpu <= cost.channel) {
        throw std::invalid_argument(
            "per-instruction cost must satisfy 0 <= b < c");
    }

    NetworkSolution sol;
    sol.stages = stages;
    sol.processors = 1u << stages;
    sol.cpu = cost.cpu;
    sol.network = cost.channel;

    const double think = cost.thinkTime();
    sol.transactionRate = 1.0 / think;

    if (cost.channel == 0.0) {
        // The workload never touches the network.
        sol.unitRequestRate = 0.0;
        sol.computeFraction = 1.0;
        sol.inputLoad = 0.0;
        sol.acceptance = 1.0;
        sol.cyclesPerInstruction = cost.cpu;
        sol.waiting = 0.0;
        sol.processorUtilization = 1.0 / cost.cpu;
        sol.processingPower =
            static_cast<double>(sol.processors) * sol.processorUtilization;
        return sol;
    }

    sol.unitRequestRate = sol.transactionRate * cost.channel;
    sol.computeFraction =
        solveComputeFraction(sol.transactionRate, cost.channel, stages);
    sol.inputLoad = 1.0 - sol.computeFraction;
    sol.acceptance = sol.inputLoad > 0.0
        ? patelNetworkOutput(sol.inputLoad, stages) / sol.inputLoad
        : 1.0;
    sol.cyclesPerInstruction = think / sol.computeFraction;
    sol.waiting = sol.cyclesPerInstruction - cost.cpu;
    sol.processorUtilization = 1.0 / sol.cyclesPerInstruction;
    sol.processingPower =
        static_cast<double>(sol.processors) * sol.processorUtilization;
    return sol;
}

std::vector<NetworkSolution>
solveNetworkCurve(const std::vector<PerInstructionCost> &costs,
                  unsigned first_stage)
{
    if (first_stage == 0) {
        throw std::invalid_argument("need at least one network stage");
    }
    const std::size_t n = costs.size();
    std::vector<NetworkSolution> curve(n);

    // Gather the points that need the fixed point into contiguous
    // arrays for one batched bisection sweep.
    std::vector<double> rates;
    std::vector<double> sizes;
    std::vector<unsigned> point_stages;
    std::vector<std::size_t> where;
    rates.reserve(n);
    sizes.reserve(n);
    point_stages.reserve(n);
    where.reserve(n);

    for (std::size_t i = 0; i < n; ++i) {
        const PerInstructionCost &cost = costs[i];
        const unsigned stages =
            first_stage + static_cast<unsigned>(i);
        if (cost.channel < 0.0 || cost.cpu <= cost.channel) {
            throw std::invalid_argument(
                "per-instruction cost must satisfy 0 <= b < c");
        }

        NetworkSolution &sol = curve[i];
        sol.stages = stages;
        sol.processors = 1u << stages;
        sol.cpu = cost.cpu;
        sol.network = cost.channel;

        const double think = cost.thinkTime();
        sol.transactionRate = 1.0 / think;

        if (cost.channel == 0.0) {
            // The workload never touches the network.
            sol.unitRequestRate = 0.0;
            sol.computeFraction = 1.0;
            sol.inputLoad = 0.0;
            sol.acceptance = 1.0;
            sol.cyclesPerInstruction = cost.cpu;
            sol.waiting = 0.0;
            sol.processorUtilization = 1.0 / cost.cpu;
            sol.processingPower = static_cast<double>(sol.processors) *
                sol.processorUtilization;
            continue;
        }

        sol.unitRequestRate = sol.transactionRate * cost.channel;
        rates.push_back(sol.transactionRate);
        sizes.push_back(cost.channel);
        point_stages.push_back(stages);
        where.push_back(i);
    }

    if (!where.empty()) {
        std::vector<double> fractions(where.size());
        solveComputeFractionBatch(rates.data(), sizes.data(),
                                  point_stages.data(), where.size(),
                                  fractions.data());
        for (std::size_t j = 0; j < where.size(); ++j) {
            NetworkSolution &sol = curve[where[j]];
            const double think = sol.cpu - sol.network;
            sol.computeFraction = fractions[j];
            sol.inputLoad = 1.0 - sol.computeFraction;
            sol.acceptance = sol.inputLoad > 0.0
                ? patelNetworkOutput(sol.inputLoad, sol.stages) /
                    sol.inputLoad
                : 1.0;
            sol.cyclesPerInstruction = think / sol.computeFraction;
            sol.waiting = sol.cyclesPerInstruction - sol.cpu;
            sol.processorUtilization = 1.0 / sol.cyclesPerInstruction;
            sol.processingPower = static_cast<double>(sol.processors) *
                sol.processorUtilization;
        }
    }
    return curve;
}

unsigned
stagesForProcessors(unsigned processors)
{
    if (processors < 2) {
        return 1;
    }
    unsigned stages = 0;
    unsigned capacity = 1;
    while (capacity < processors) {
        capacity *= 2;
        ++stages;
    }
    return stages;
}

} // namespace swcc
