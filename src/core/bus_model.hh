/**
 * @file
 * Bus contention model: a closed queueing network with one server (the
 * bus) and n customers (the processors), solved by exact Mean Value
 * Analysis (paper Section 2.3).
 */

#ifndef SWCC_CORE_BUS_MODEL_HH
#define SWCC_CORE_BUS_MODEL_HH

#include <cstddef>
#include <vector>

#include "core/per_instruction.hh"
#include "core/types.hh"

namespace swcc
{

/**
 * Solution of the bus contention model for one operating point.
 */
struct BusSolution
{
    /** Number of processors n. */
    unsigned processors = 0;
    /** c: CPU cycles per instruction without contention. */
    Cycles cpu = 0.0;
    /** b: bus cycles per instruction (the mean bus service demand). */
    Cycles bus = 0.0;
    /** w: contention (queueing) cycles per instruction. */
    Cycles waiting = 0.0;
    /** Fraction of time the bus is busy. */
    double busUtilization = 0.0;
    /** Mean number of processors queued or in service at the bus. */
    double busQueueLength = 0.0;
    /** U = 1 / (c + w): processor utilization (Equation 3). */
    double processorUtilization = 0.0;
    /** n * U: system processing power. */
    double processingPower = 0.0;

    /** Total cycles per instruction including contention, c + w. */
    Cycles cyclesPerInstruction() const { return cpu + waiting; }
};

/**
 * Solves the closed single-server queueing model.
 *
 * Each processor alternates between a think phase of mean Z = c - b
 * cycles and a bus transaction of mean b cycles (exponential service,
 * as in the paper: the model "is based on exponential service times").
 * Exact MVA recursion over the customer population yields the mean
 * waiting time w per instruction; U = 1/(c + w).
 *
 * @param cost Per-instruction cost (c and b) of the workload.
 * @param processors Number of processors n >= 1.
 * @throws std::invalid_argument if processors == 0, b < 0, or c < b.
 */
BusSolution solveBus(const PerInstructionCost &cost, unsigned processors);

/**
 * Solves the bus model for every processor count 1..max_processors in
 * ONE pass of the MVA recursion.
 *
 * The exact MVA recursion over the customer population visits every
 * prefix population anyway — solving for n processors computes the
 * k-processor solution for all k < n along the way. This solver
 * derives each point's outputs as the recursion passes its
 * population, turning a curve of N solves from O(N^2) recursion
 * steps into O(N).
 *
 * Element i is bitwise identical to solveBus(cost, i + 1): the
 * recursion executes the same floating-point operations in the same
 * order that the per-point solver would.
 *
 * @param cost Per-instruction cost (c and b) of the workload.
 * @param max_processors Largest population to solve, >= 1.
 * @throws std::invalid_argument as solveBus().
 */
std::vector<BusSolution> solveBusCurve(const PerInstructionCost &cost,
                                       unsigned max_processors);

/**
 * Solves the bus model with a general service-time distribution,
 * parameterised by the squared coefficient of variation of the bus
 * service time (Reiser's approximate MVA for FCFS queues):
 *
 *   R_k = S * (1 + Q_{k-1}) - (1 - scv) / 2 * U_{k-1} * S
 *
 * scv = 1 recovers the exact exponential MVA of solveBus(); scv = 0
 * models the simulator's deterministic bus timing, whose shorter
 * residual service halves the waiting seen by an arriving processor.
 * The paper's validation bias — the analytical model "consistently
 * overestimates bus contention" — is exactly the scv = 1 vs scv = 0
 * gap, and this solver quantifies it.
 *
 * @param cost Per-instruction cost (c and b).
 * @param processors Number of processors n >= 1.
 * @param scv Squared coefficient of variation of bus service, >= 0.
 */
BusSolution solveBusGeneralService(const PerInstructionCost &cost,
                                   unsigned processors, double scv);

/**
 * Upper bound on processing power imposed by bus bandwidth: the bus can
 * serve at most one transaction per b cycles, so processing power
 * saturates at 1/b instructions per cycle (infinite for b == 0).
 */
double busSaturationPower(const PerInstructionCost &cost);

/**
 * Smallest number of processors at which the asymptotic bus-bandwidth
 * bound (1/b) crosses the no-contention bound (n/c): the knee of the
 * processing-power curve. Returns a real number; the curve visibly
 * flattens past its ceiling.
 */
double busSaturationProcessors(const PerInstructionCost &cost);

} // namespace swcc

#endif // SWCC_CORE_BUS_MODEL_HH
