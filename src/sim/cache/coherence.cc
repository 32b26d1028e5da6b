#include "sim/cache/coherence.hh"

#include <string>
#include <unordered_map>

#include "core/obs/log.hh"
#include "core/obs/metrics.hh"

namespace swcc
{

namespace
{

#if SWCC_OBS_ENABLED
/** Publishes the active snoop path (1 = Directory, 0 = scan). */
void
noteSnoopPath(bool directory)
{
    static obs::Gauge &path =
        obs::metrics().gauge("sim.snoop_path.directory");
    path.set(directory ? 1.0 : 0.0);
}
#endif

bool
isMissOp(Operation op)
{
    return op == Operation::CleanMissMem || op == Operation::DirtyMissMem ||
        op == Operation::CleanMissCache || op == Operation::DirtyMissCache;
}

bool
isDirtyMissOp(Operation op)
{
    return op == Operation::DirtyMissMem || op == Operation::DirtyMissCache;
}

} // namespace

bool
AccessResult::hasMiss() const
{
    for (std::uint8_t i = 0; i < numOps; ++i) {
        if (isMissOp(ops[i])) {
            return true;
        }
    }
    return false;
}

bool
AccessResult::hasDirtyMiss() const
{
    for (std::uint8_t i = 0; i < numOps; ++i) {
        if (isDirtyMissOp(ops[i])) {
            return true;
        }
    }
    return false;
}

CoherenceProtocol::CoherenceProtocol(const CacheConfig &cache_config,
                                     CpuId num_cpus)
{
    if (num_cpus == 0) {
        throw std::invalid_argument("need at least one processor");
    }
    caches_.reserve(num_cpus);
    for (CpuId i = 0; i < num_cpus; ++i) {
        caches_.emplace_back(cache_config);
    }
    useDirectory_ = num_cpus <= kMaxDirectoryCpus;
    if (useDirectory_) {
        // Worst case: every line of every cache holds a distinct
        // block. Sizing for it up front means the map never rehashes.
        directory_ = HolderMap(static_cast<std::size_t>(num_cpus) *
                               caches_.front().lines().size());
    }
#if SWCC_OBS_ENABLED
    noteSnoopPath(useDirectory_);
#endif
}

void
CoherenceProtocol::setSnoopPath(SnoopPath path)
{
    for (const Cache &cache : caches_) {
        if (cache.validLines() != 0) {
            throw std::logic_error(
                "setSnoopPath() requires a cold system");
        }
    }
    if (path == SnoopPath::Directory &&
        numCpus() > kMaxDirectoryCpus) {
        // The silent fallback here once made a 128-CPU "directory"
        // benchmark measure the scan path; say what actually runs.
        // SWCC_LOG_WARN prints once per site, so a >64-CPU sweep logs
        // this once plus a repeat count, not once per system.
        SWCC_LOG_WARN("snoop path Directory requested for " +
                      std::to_string(numCpus()) +
                      " CPUs but the sharer index holds at most " +
                      std::to_string(CoherenceProtocol::kMaxDirectoryCpus) +
                      "; falling back to ReferenceScan");
    }
    useDirectory_ = path == SnoopPath::Directory &&
        numCpus() <= kMaxDirectoryCpus;
    SWCC_LOG_DEBUG(std::string("snoop path set to ") +
                   (useDirectory_ ? "Directory" : "ReferenceScan"));
#if SWCC_OBS_ENABLED
    noteSnoopPath(useDirectory_);
#endif
}

CoherenceProtocol::HolderMask
CoherenceProtocol::holderMask(Addr block) const
{
    return directory_.mask(block);
}

CoherenceProtocol::HolderMask
CoherenceProtocol::dirtyHolderMask(Addr block) const
{
    return directory_.dirtyMask(block);
}

bool
CoherenceProtocol::evict(CpuId cpu, CacheLine &victim)
{
    if (!isValidState(victim.state)) {
        return false;
    }
    const bool dirty = isDirtyState(victim.state);
    invalidateLine(cpu, victim);
    return dirty;
}

void
CoherenceProtocol::fillLine(CpuId cpu, CacheLine &victim, Addr addr,
                            LineState state)
{
    caches_[cpu].fill(victim, addr, state);
    if (useDirectory_) {
        directory_.setBit(victim.blockAddr, cpu, isDirtyState(state));
    }
}

void
CoherenceProtocol::invalidateLine(CpuId cpu, CacheLine &line)
{
    if (useDirectory_ && isValidState(line.state)) {
        directory_.clearBit(line.blockAddr, cpu);
    }
    caches_[cpu].invalidate(line);
}

bool
CoherenceProtocol::dirtyElsewhere(CpuId cpu, Addr block) const
{
    if (useDirectory_) {
        // The dirty-holder bitset is maintained by fillLine()/
        // setLineState()/invalidateLine(), so no holder cache needs
        // to be probed at all.
        return (directory_.dirtyMask(block) & ~cpuBit(cpu)) != 0;
    }
    for (CpuId other = 0; other < numCpus(); ++other) {
        if (other == cpu) {
            continue;
        }
        const CacheLine *line = caches_[other].find(block);
        if (line != nullptr && isDirtyState(line->state)) {
            return true;
        }
    }
    return false;
}

unsigned
CoherenceProtocol::countOtherHolders(CpuId cpu, Addr block) const
{
    if (useDirectory_) {
        return static_cast<unsigned>(
            std::popcount(directory_.mask(block) & ~cpuBit(cpu)));
    }
    unsigned holders = 0;
    for (CpuId other = 0; other < numCpus(); ++other) {
        if (other != cpu && caches_[other].find(block) != nullptr) {
            ++holders;
        }
    }
    return holders;
}

void
checkCoherenceInvariants(const CoherenceProtocol &protocol)
{
#if SWCC_OBS_ENABLED
    static obs::Counter &checks =
        obs::metrics().counter("sim.invariant_checks");
    checks.add(1);
#endif
    struct BlockView
    {
        unsigned holders = 0;
        unsigned owners = 0;
        unsigned exclusives = 0;
        CoherenceProtocol::HolderMask mask = 0;
        CoherenceProtocol::HolderMask dirty = 0;
    };
    std::unordered_map<Addr, BlockView> blocks;

    for (CpuId cpu = 0; cpu < protocol.numCpus(); ++cpu) {
        for (const CacheLine &line : protocol.cache(cpu).lines()) {
            if (!isValidState(line.state)) {
                continue;
            }
            BlockView &view = blocks[line.blockAddr];
            ++view.holders;
            view.mask |= CoherenceProtocol::HolderMask{1} << cpu;
            if (isDirtyState(line.state)) {
                ++view.owners;
                view.dirty |= CoherenceProtocol::HolderMask{1} << cpu;
            }
            if (line.state == LineState::Exclusive ||
                line.state == LineState::Dirty) {
                ++view.exclusives;
            }
        }
    }

    for (const auto &[addr, view] : blocks) {
        if (view.exclusives > 0 && view.holders > 1) {
            throw std::logic_error(
                "block " + std::to_string(addr) +
                " is exclusive in one cache but held by " +
                std::to_string(view.holders));
        }
        if (view.owners > 1) {
            throw std::logic_error(
                "block " + std::to_string(addr) + " has " +
                std::to_string(view.owners) + " dirty owners");
        }
    }

    if (protocol.snoopPath() == SnoopPath::Directory) {
        if (protocol.directoryBlocks() != blocks.size()) {
            throw std::logic_error(
                "sharer index tracks " +
                std::to_string(protocol.directoryBlocks()) +
                " blocks but the caches hold " +
                std::to_string(blocks.size()));
        }
        for (const auto &[addr, view] : blocks) {
            if (protocol.holderMask(addr) != view.mask) {
                throw std::logic_error(
                    "sharer index disagrees with the caches on block " +
                    std::to_string(addr));
            }
            if (protocol.dirtyHolderMask(addr) != view.dirty) {
                throw std::logic_error(
                    "sharer index dirty bitset disagrees with the "
                    "caches on block " +
                    std::to_string(addr));
            }
        }
    }
}

} // namespace swcc
