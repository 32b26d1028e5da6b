#include "sim/cache/mesi_family_protocol.hh"

namespace swcc
{

MesiFamilyProtocol::MesiFamilyProtocol(MesiVariant variant,
                                       const CacheConfig &cache_config,
                                       CpuId num_cpus)
    : CoherenceProtocol(cache_config, num_cpus), variant_(variant)
{
}

int
MesiFamilyProtocol::forwarderOf(Addr block) const
{
    const auto it = forwarder_.find(block);
    return it == forwarder_.end() ? -1 : static_cast<int>(it->second);
}

void
MesiFamilyProtocol::invalidateRemotes(CpuId cpu, CacheLine &line,
                                      AccessResult &out)
{
    ++measured_.invalidations;
    measured_.copiesInvalidated += broadcastInvalidate(cpu, line, out);
    // The writer now holds the sole (dirty) copy, so no clean
    // forwarder for the block can exist.
    if (variant_ == MesiVariant::Mesif) {
        forwarder_.erase(line.blockAddr);
    }
}

CacheLine &
MesiFamilyProtocol::handleMiss(CpuId cpu, Addr addr, AccessResult &out)
{
    Cache &cache = caches_[cpu];
    const Addr block = cache.blockAddr(addr);

    if (coherenceMiss(cpu, block)) {
        ++measured_.coherenceMisses;
    }

    CacheLine &victim = cache.victimFor(addr);
    const bool mesif = variant_ == MesiVariant::Mesif;
    if (mesif && isValidState(victim.state)) {
        // An evicted forwarder copy silently drops the slot; the next
        // shared miss to the block re-seats it (or goes to memory).
        const auto it = forwarder_.find(victim.blockAddr);
        if (it != forwarder_.end() && it->second == cpu) {
            forwarder_.erase(it);
        }
    }

    // MOESI: a supplying owner keeps ownership (Owned) and memory
    // stays stale, deferring the write-back to the owner's eviction.
    const Supplier supplier =
        fillMiss(cpu, addr, victim,
                 /*owner_keeps_ownership=*/variant_ == MesiVariant::Moesi,
                 /*clean_forwarder=*/mesif && forwarder_.contains(block),
                 out);
    if (supplier == Supplier::Owner) {
        ++measured_.ownerSupplies;
    } else if (supplier == Supplier::Forwarder) {
        ++measured_.forwardSupplies;
    }

    if (mesif) {
        if (victim.state == LineState::SharedClean) {
            // The newest sharer takes the forwarder slot (real MESIF
            // hands F to the most recent requester, keeping the slot
            // on the copy least likely to be evicted soon).
            forwarder_[block] = cpu;
        } else {
            forwarder_.erase(block);
        }
    }
    return victim;
}

void
MesiFamilyProtocol::access(CpuId cpu, RefType type, Addr addr,
                           AccessResult &out)
{
    out.reset();
    if (type == RefType::Flush) {
        // Hardware coherence: flushes are unnecessary no-ops.
        return;
    }

    Cache &cache = caches_[cpu];

    CacheLine *line = cache.find(addr);
    if (line != nullptr) {
        cache.touch(*line);
    } else {
        line = &handleMiss(cpu, addr, out);
    }

    if (type != RefType::Store) {
        return;
    }

    // A store miss is a read-for-ownership: the fill above, then the
    // same transition as a store hit on the filled line.
    switch (line->state) {
      case LineState::Exclusive:
      case LineState::Dirty:
        setLineState(cpu, *line, LineState::Dirty);
        return;
      case LineState::SharedClean:
        invalidateRemotes(cpu, *line, out);
        return;
      case LineState::SharedDirty:
        if (variant_ == MesiVariant::Moesi) {
            // The owner upgrades: invalidate the other sharers and
            // return to the sole-dirty state.
            invalidateRemotes(cpu, *line, out);
            return;
        }
        [[fallthrough]];
      case LineState::Invalid:
        throw std::logic_error(
            "MESI-family store reached an impossible line state");
    }
}

} // namespace swcc
