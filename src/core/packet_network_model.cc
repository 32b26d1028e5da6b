#include "core/packet_network_model.hh"

#include <algorithm>
#include <stdexcept>

#include "core/cost_model.hh"
#include "core/network_model.hh"
#include "core/per_instruction.hh"

namespace swcc
{

PacketTrafficModel::PacketTrafficModel()
{
    shapes_.fill(PacketShape{});
    supported_.fill(false);

    auto set = [this](Operation op, double req, double resp) {
        shapes_[operationIndex(op)] = {req, resp};
        supported_[operationIndex(op)] = true;
    };

    set(Operation::InstrExec, 0.0, 0.0);
    set(Operation::CleanMissMem, 1.0, 4.0);  // Address out, block back.
    set(Operation::DirtyMissMem, 6.0, 4.0);  // + victim address & data.
    set(Operation::ReadThrough, 1.0, 1.0);
    set(Operation::WriteThrough, 2.0, 0.0);  // Posted: address + word.
    set(Operation::CleanFlush, 0.0, 0.0);
    set(Operation::DirtyFlush, 5.0, 0.0);    // Posted: address + block.
}

PacketShape
PacketTrafficModel::shape(Operation op) const
{
    if (!supports(op)) {
        throw std::invalid_argument(
            std::string(operationName(op)) +
            " is not defined for a packet-switched network");
    }
    return shapes_[operationIndex(op)];
}

bool
PacketTrafficModel::supports(Operation op) const
{
    return supported_[operationIndex(op)];
}

void
PacketTrafficModel::setShape(Operation op, PacketShape shape)
{
    if (shape.requestWords < 0.0 || shape.responseWords < 0.0) {
        throw std::invalid_argument("packet shapes must be non-negative");
    }
    shapes_[operationIndex(op)] = shape;
    supported_[operationIndex(op)] = true;
}

double
kruskalSnirWait(double link_load)
{
    if (link_load < 0.0 || link_load >= 1.0) {
        throw std::invalid_argument(
            "link load must lie in [0, 1) for a stable queue");
    }
    return link_load / (4.0 * (1.0 - link_load));
}

PacketNetworkSolution
solvePacketNetwork(Scheme scheme, const WorkloadParams &params,
                   unsigned stages, const PacketTrafficModel &traffic)
{
    if (!schemeWorksOnNetwork(scheme)) {
        throw std::invalid_argument(
            "snoopy schemes cannot run on a multistage network");
    }
    const unsigned processors = networkProcessors(stages);

    const FrequencyVector freqs = operationFrequencies(scheme, params);

    // Local CPU work per instruction: Table 1 processor overhead minus
    // its bus-held portion (the transfer itself now happens in the
    // network), plus the 1-cycle instruction execution.
    const BusCostModel bus_costs;
    double cpu_local = 0.0;
    double forward_words = 0.0;
    double return_words = 0.0;
    for (Operation op : kAllOperations) {
        const double freq = freqs.of(op);
        if (freq == 0.0) {
            continue;
        }
        if (!traffic.supports(op)) {
            throw std::invalid_argument(
                "workload uses operation '" +
                std::string(operationName(op)) +
                "' which the packet network does not support");
        }
        const OpCost cost = bus_costs.cost(op);
        cpu_local += freq * (cost.cpu - cost.channel);
        const PacketShape shape = traffic.shape(op);
        forward_words += freq * shape.requestWords;
        return_words += freq * shape.responseWords;
    }

    PacketNetworkSolution sol;
    sol.stages = stages;
    sol.processors = processors;
    sol.cpuPerInstruction = cpu_local;
    sol.wordsPerInstruction = std::max(forward_words, return_words);

    const double n = static_cast<double>(stages);

    // Blocked cycles per instruction at per-stage wait w.
    auto stall_at = [&](double wait) {
        double stall = 0.0;
        for (Operation op : kAllOperations) {
            const double freq = freqs.of(op);
            if (freq == 0.0 || op == Operation::InstrExec) {
                continue;
            }
            const PacketShape shape = traffic.shape(op);
            if (shape.requestWords == 0.0 &&
                shape.responseWords == 0.0) {
                continue;
            }
            double latency;
            if (shape.responseWords > 0.0) {
                // Round trip; trains pipeline behind their heads.
                latency = 2.0 * n * (1.0 + wait) + traffic.memoryCycles +
                    (shape.requestWords - 1.0) +
                    (shape.responseWords - 1.0);
            } else {
                // Posted: the processor only serialises the injection.
                latency = shape.requestWords;
            }
            stall += freq * latency;
        }
        return stall;
    };

    if (sol.wordsPerInstruction == 0.0) {
        sol.cyclesPerInstruction = cpu_local;
        sol.processorUtilization = 1.0 / cpu_local;
        sol.processingPower =
            static_cast<double>(sol.processors) *
            sol.processorUtilization;
        return sol;
    }

    // Fixed point: T = cpu_local + stall(w(p)) with p = words / T.
    // The right-hand side falls as T grows, so bisection on
    // h(T) = rhs(T) - T locates the unique crossing above T > words.
    auto rhs = [&](double cycles) {
        const double load = sol.wordsPerInstruction / cycles;
        return cpu_local + stall_at(kruskalSnirWait(load));
    };

    // The crossing lies above W (where the link load reaches 1) and
    // above the zero-stall time, and rhs - T is strictly decreasing.
    double lo = sol.wordsPerInstruction * (1.0 + 1e-9);
    double hi = std::max(lo * 2.0, cpu_local + stall_at(0.0)) + 1.0;
    while (rhs(hi) > hi) {
        hi *= 2.0;
        if (hi > 1e12) {
            throw std::runtime_error(
                "packet network fixed point failed to bracket");
        }
    }
    for (int iter = 0; iter < 200; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (rhs(mid) > mid) {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo < 1e-12 * hi) {
            break;
        }
    }

    sol.cyclesPerInstruction = 0.5 * (lo + hi);
    sol.linkLoad = sol.wordsPerInstruction / sol.cyclesPerInstruction;
    sol.perStageWait = kruskalSnirWait(std::min(sol.linkLoad,
                                                1.0 - 1e-12));
    sol.networkStall = sol.cyclesPerInstruction - cpu_local;
    sol.processorUtilization = 1.0 / sol.cyclesPerInstruction;
    sol.processingPower = static_cast<double>(sol.processors) *
        sol.processorUtilization;
    return sol;
}

RawPacketSolution
solveRawPacketPoint(double think, double request_words,
                    double response_words, unsigned stages,
                    double memory_cycles)
{
    if (stages == 0) {
        throw std::invalid_argument("need at least one network stage");
    }
    if (request_words < 1.0 || response_words < 0.0 || think < 0.0) {
        throw std::invalid_argument(
            "need request_words >= 1, response_words >= 0, think >= 0");
    }

    const double n = static_cast<double>(stages);
    const double words = std::max(request_words, response_words);

    auto latency_at = [&](double wait) {
        if (response_words > 0.0) {
            return 2.0 * n * (1.0 + wait) + memory_cycles +
                (request_words - 1.0) + (response_words - 1.0);
        }
        return request_words;
    };

    // Fixed point on cycles-per-transaction C = think + L(words / C).
    auto rhs = [&](double cycles) {
        return think + latency_at(kruskalSnirWait(words / cycles));
    };

    double lo = words * (1.0 + 1e-9);
    double hi = std::max(lo * 2.0, think + latency_at(0.0)) + 1.0;
    while (rhs(hi) > hi) {
        hi *= 2.0;
        if (hi > 1e12) {
            throw std::runtime_error(
                "packet network fixed point failed to bracket");
        }
    }
    for (int iter = 0; iter < 200; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (rhs(mid) > mid) {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo < 1e-12 * hi) {
            break;
        }
    }

    RawPacketSolution sol;
    sol.cyclesPerTransaction = 0.5 * (lo + hi);
    sol.latency = sol.cyclesPerTransaction - think;
    sol.computeFraction = think / sol.cyclesPerTransaction;
    sol.linkLoad = words / sol.cyclesPerTransaction;
    return sol;
}

} // namespace swcc
