#include "sim/mp/param_extractor.hh"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <unordered_set>

#include "core/obs/log.hh"
#include "sim/cache/base_protocol.hh"
#include "sim/mp/system.hh"

namespace swcc
{

namespace
{

double
ratio(std::uint64_t count, std::uint64_t total)
{
    return total > 0
        ? static_cast<double>(count) / static_cast<double>(total)
        : 0.0;
}

} // namespace

double
BaseCacheCounts::dataMissRate() const
{
    std::uint64_t refs = 0;
    for (const CpuRefCounts &cpu : perCpu) {
        refs += cpu.dataRefs;
    }
    return ratio(dataMisses, refs);
}

double
BaseCacheCounts::instrMissRate() const
{
    std::uint64_t instrs = 0;
    for (const CpuRefCounts &cpu : perCpu) {
        instrs += cpu.instructions;
    }
    return ratio(instrMisses, instrs);
}

double
BaseCacheCounts::dirtyMissFraction() const
{
    return ratio(dirtyMisses, instrMisses + dataMisses);
}

BaseCacheCounts
replayBaseCaches(const TraceBuffer &trace, const CacheConfig &cache_config,
                 CpuId cpus)
{
    if (trace.numCpus() > cpus) {
        throw std::invalid_argument(
            "trace uses more processors than the replay has");
    }
    BaseProtocol protocol(cache_config, cpus);
    AccessResult result;
    BaseCacheCounts counts;
    counts.perCpu.resize(cpus);
    for (const TraceEvent &event : trace) {
        protocol.access(event.cpu, event.type, event.addr, result);

        CpuRefCounts &cpu = counts.perCpu[event.cpu];
        switch (event.type) {
          case RefType::IFetch:
            ++cpu.instructions;
            break;
          case RefType::Load:
          case RefType::Store:
            ++cpu.dataRefs;
            break;
          case RefType::Flush:
            ++cpu.flushes;
            break;
        }

        for (std::uint8_t i = 0; i < result.numOps; ++i) {
            const Operation op = result.ops[i];
            ++counts.opCounts[operationIndex(op)];
            if (isMissOp(op)) {
                if (event.type == RefType::IFetch) {
                    ++counts.instrMisses;
                } else {
                    ++counts.dataMisses;
                }
                if (isDirtyMissOp(op)) {
                    ++counts.dirtyMisses;
                }
            }
        }
    }
    return counts;
}

ExtractedParams
extractParams(const TraceBuffer &trace, const CacheConfig &cache_config,
              const SharedClassifier &shared)
{
    // Without a classifier, sharing is the dynamic interpretation
    // (blocks touched by more than one processor): scan for that set
    // once and classify against it in both the trace analysis and the
    // Dragon run.
    SharedClassifier measure = shared;
    if (!measure) {
        auto shared_blocks = std::make_shared<std::unordered_set<Addr>>(
            dynamicSharedBlocks(trace, cache_config.blockBytes));
        measure = [shared_blocks](Addr block) {
            return shared_blocks->contains(block);
        };
    }

    // Sharing interaction measurements from a Dragon run, whose system
    // is gone before the other measurements allocate theirs.
    DragonMeasurements dragon;
    {
        MultiprocessorSystem system(Scheme::Dragon, cache_config,
                                    std::max<CpuId>(1, trace.numCpus()),
                                    measure);
        system.run(trace);
        dragon = static_cast<const DragonProtocol &>(system.protocol())
                     .measurements();
    }
    return extractParams(trace, cache_config, measure, dragon);
}

ExtractedParams
extractParams(const TraceBuffer &trace, const CacheConfig &cache_config,
              const SharedClassifier &shared,
              const DragonMeasurements &dragon)
{
    ExtractedParams out;

    // Raw-trace measurements.
    out.traceStats = analyzeTrace(trace, cache_config.blockBytes, shared);

    // Miss rates and the dirty-victim fraction from Base caches,
    // uncontaminated by coherence actions.
    out.baseStats = replayBaseCaches(trace, cache_config,
                                     std::max<CpuId>(1, trace.numCpus()));
    out.dragonMeasurements = dragon;

    // Assemble the model input.
    WorkloadParams params = middleParams();
    params.ls = out.traceStats.ls;
    params.shd = out.traceStats.shd;
    params.wr = out.traceStats.wr;
    params.msdat = out.baseStats.dataMissRate();
    params.mains = out.baseStats.instrMissRate();
    params.md = out.baseStats.dirtyMissFraction();
    // apl and mdshd are only measurable when the trace exercises
    // write runs / flushes; warnDefaultedParams() reports a fallback.
    params.apl = std::max(
        1.0, out.traceStats.apl.value_or(
                 1.0 / paramLevelValue(ParamId::InvApl, Level::Middle)));
    params.mdshd = out.traceStats.mdshd.value_or(
        paramLevelValue(ParamId::Mdshd, Level::Middle));
    params.oclean = out.dragonMeasurements.oclean(
        paramLevelValue(ParamId::Oclean, Level::Middle));
    params.opres = out.dragonMeasurements.opres(
        paramLevelValue(ParamId::Opres, Level::Middle));
    params.nshd = out.dragonMeasurements.nshd(
        paramLevelValue(ParamId::Nshd, Level::Middle));
    params.validate();
    out.params = params;
    return out;
}

void
warnDefaultedParams(const ExtractedParams &extracted, Scheme scheme)
{
    // A short, read-only or flush-free trace silently inheriting the
    // paper's middle value has misled more than one experiment, so say
    // so, but only where the value enters the scheme's table.
    bool reads_apl = false;
    switch (scheme) {
      case Scheme::SoftwareFlush:
      case Scheme::Mesi:
      case Scheme::Mesif:
      case Scheme::Moesi:
      case Scheme::Hybrid:
        reads_apl = true;
        break;
      case Scheme::Base:
      case Scheme::NoCache:
      case Scheme::Dragon:
        break;
    }
    if (reads_apl && !extracted.traceStats.apl.has_value()) {
        SWCC_LOG_WARN("trace has no write runs; apl falls back to the "
                      "paper's middle value");
    }
    if (scheme == Scheme::SoftwareFlush &&
        !extracted.traceStats.mdshd.has_value()) {
        SWCC_LOG_WARN("trace has no flush events; mdshd falls back "
                      "to the paper's middle value");
    }
}

} // namespace swcc
