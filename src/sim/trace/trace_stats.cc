#include "sim/trace/trace_stats.hh"

#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace swcc
{

namespace
{

bool
isPowerOfTwo(std::size_t value)
{
    return value != 0 && (value & (value - 1)) == 0;
}

/** State of the apl run-length measurement for one block. */
struct RunState
{
    CpuId cpu = 0;
    std::size_t length = 0;
    bool hasWrite = false;
};

/** A data block: its sharing class and its apl run. */
struct BlockState
{
    bool shared = false;
    RunState run;
};

/** Per-(cpu, block) dirtiness for mdshd measurement. */
struct FlushKey
{
    Addr block;
    CpuId cpu;
    bool operator==(const FlushKey &) const = default;
};

struct FlushKeyHash
{
    std::size_t
    operator()(const FlushKey &key) const
    {
        return std::hash<Addr>()(key.block * 0x9e3779b97f4a7c15ull) ^
            std::hash<CpuId>()(key.cpu);
    }
};

} // namespace

std::unordered_set<Addr>
dynamicSharedBlocks(const TraceBuffer &trace, std::size_t block_bytes)
{
    const Addr block_mask = ~static_cast<Addr>(block_bytes - 1);
    std::unordered_map<Addr, CpuId> first_toucher;
    std::unordered_set<Addr> shared_blocks;
    for (const TraceEvent &event : trace) {
        if (!isData(event.type)) {
            continue;
        }
        const Addr block = event.addr & block_mask;
        auto [it, inserted] = first_toucher.emplace(block, event.cpu);
        if (!inserted && it->second != event.cpu) {
            shared_blocks.insert(block);
        }
    }
    return shared_blocks;
}

TraceStatistics
analyzeTrace(const TraceBuffer &trace, std::size_t block_bytes,
             const SharedClassifier &classifier)
{
    if (!isPowerOfTwo(block_bytes)) {
        throw std::invalid_argument("block size must be a power of two");
    }

    TraceStatistics stats;
    stats.blockBytes = block_bytes;

    const Addr block_mask = ~static_cast<Addr>(block_bytes - 1);

    // Without a classifier, sharing is known only once the whole trace
    // has been seen.
    std::unordered_set<Addr> dynamic_shared;
    if (!classifier) {
        dynamic_shared = dynamicSharedBlocks(trace, block_bytes);
    }

    // One pass: counts, apl run lengths, mdshd. Each data block is
    // classified once, on its first reference.
    std::unordered_map<Addr, BlockState> blocks;
    std::unordered_map<FlushKey, bool, FlushKeyHash> dirty;
    for (const TraceEvent &event : trace) {
        const Addr block = event.addr & block_mask;
        switch (event.type) {
          case RefType::IFetch:
            ++stats.instructions;
            continue;
          case RefType::Load:
            ++stats.loads;
            break;
          case RefType::Store:
            ++stats.stores;
            break;
          case RefType::Flush:
            ++stats.flushes;
            {
                auto it = dirty.find(FlushKey{block, event.cpu});
                if (it != dirty.end() && it->second) {
                    ++stats.dirtyFlushes;
                    it->second = false;
                }
            }
            continue;
        }

        // Loads and stores only from here on.
        ++stats.dataRefs;
        auto [it, first_reference] = blocks.try_emplace(block);
        BlockState &state = it->second;
        if (first_reference) {
            state.shared = classifier ? classifier(block)
                                      : dynamic_shared.contains(block);
            if (state.shared) {
                ++stats.sharedBlocks;
            }
        }
        if (!state.shared) {
            continue;
        }

        const bool write = event.type == RefType::Store;
        ++stats.sharedRefs;
        if (write) {
            ++stats.sharedWrites;
            dirty[FlushKey{block, event.cpu}] = true;
        }

        // apl: count the run of references by one processor, at least
        // one a write, terminated by another processor.
        RunState &run = state.run;
        if (run.length > 0 && run.cpu == event.cpu) {
            ++run.length;
            run.hasWrite = run.hasWrite || write;
        } else {
            if (run.length > 0 && run.hasWrite) {
                ++stats.aplRuns;
                stats.aplRunRefs += run.length;
            }
            run.cpu = event.cpu;
            run.length = 1;
            run.hasWrite = write;
        }
    }

    stats.dataBlocks = blocks.size();

    if (stats.instructions > 0) {
        stats.ls = static_cast<double>(stats.dataRefs) /
            static_cast<double>(stats.instructions);
    }
    if (stats.dataRefs > 0) {
        stats.shd = static_cast<double>(stats.sharedRefs) /
            static_cast<double>(stats.dataRefs);
    }
    if (stats.sharedRefs > 0) {
        stats.wr = static_cast<double>(stats.sharedWrites) /
            static_cast<double>(stats.sharedRefs);
    }
    if (stats.aplRuns > 0) {
        stats.apl = static_cast<double>(stats.aplRunRefs) /
            static_cast<double>(stats.aplRuns);
    }
    if (stats.flushes > 0) {
        stats.mdshd = static_cast<double>(stats.dirtyFlushes) /
            static_cast<double>(stats.flushes);
        stats.aplPerFlush = static_cast<double>(stats.sharedRefs) /
            static_cast<double>(stats.flushes);
    }
    return stats;
}

} // namespace swcc
