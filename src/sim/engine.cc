#include "sim/engine.hh"

#include "common/log.hh"
#include "sim/core_loop.hh"
#include "trace/tracepack.hh"

namespace pomtlb
{

const RunTotals &
RunResult::totals() const
{
    if (cachedValid)
        return cached;

    RunTotals totals;
    double weighted_penalty = 0.0;
    for (const CoreRunStats &core : cores) {
        totals.refs += core.refs;
        totals.instructions += core.instructions;
        totals.cycles += core.cycles;
        totals.translationCycles += core.translationCycles;
        totals.l1TlbHits += core.l1TlbHits;
        totals.l2TlbHits += core.l2TlbHits;
        totals.lastLevelMisses += core.lastLevelTlbMisses;
        totals.pageWalks += core.pageWalks;
        totals.shootdowns += core.shootdowns;
        weighted_penalty += core.avgPenaltyPerMiss *
                            static_cast<double>(core.lastLevelTlbMisses);
    }
    totals.avgPenaltyPerMiss =
        totals.lastLevelMisses
            ? weighted_penalty /
                  static_cast<double>(totals.lastLevelMisses)
            : 0.0;
    totals.walkFraction =
        totals.lastLevelMisses
            ? static_cast<double>(totals.pageWalks) /
                  static_cast<double>(totals.lastLevelMisses)
            : 0.0;

    cached = totals;
    cachedValid = true;
    return cached;
}

namespace
{

/**
 * The primary constructor's sources: core c replays stream
 * c % stream_count of the configured trace pack (one shared mmap-ed
 * reader), or runs its own seeded generator.
 */
std::vector<std::unique_ptr<TraceSource>>
defaultSources(const Machine &machine, const BenchmarkProfile &profile,
               const EngineConfig &config)
{
    const unsigned cores = machine.numCores();
    std::vector<std::unique_ptr<TraceSource>> sources;
    sources.reserve(cores);
    if (!config.tracePackPath.empty()) {
        auto pack = std::make_shared<TracePackReader>(
            config.tracePackPath);
        for (unsigned core = 0; core < cores; ++core) {
            sources.push_back(std::make_unique<PackStreamSource>(
                pack, core % pack->streamCount()));
        }
    } else {
        const std::uint64_t seed =
            config.seed ^ machine.config().seed;
        for (unsigned core = 0; core < cores; ++core) {
            sources.push_back(std::make_unique<GeneratorSource>(
                profile, core, seed));
        }
    }
    return sources;
}

/**
 * A classic run as the core loop's representation: one tenant whose
 * vCPUs are the cores, one stream per core on that core's VM and
 * process, each core scheduled as a single slice of warmup + measured
 * references. No lifecycle events, no storms.
 */
CompiledRun
compileClassic(const Machine &machine, const BenchmarkProfile &profile,
               const EngineConfig &config,
               std::vector<std::unique_ptr<TraceSource>> sources)
{
    const unsigned cores = machine.numCores();
    simAssert(sources.size() == cores,
              "need exactly one trace source per core");
    std::vector<VmId> core_vm = config.coreVm;
    core_vm.resize(cores, core_vm.empty() ? VmId{1} : core_vm.back());
    const std::uint64_t total =
        config.warmupRefsPerCore + config.refsPerCore;

    CompiledRun run;
    ResolvedTenant tenant;
    tenant.name = profile.name;
    tenant.benchmark = profile.name;
    tenant.vcpus = cores;
    tenant.pidBase = config.pidBase;
    tenant.departureRefs = total;
    tenant.footprintBytes = profile.footprintBytes;
    tenant.multithreaded = profile.multithreaded;
    run.tenants.push_back(std::move(tenant));

    run.schedule.resize(cores);
    for (unsigned core = 0; core < cores; ++core) {
        TenantStream stream;
        stream.source = std::move(sources[core]);
        stream.homeCore = core;
        stream.vm = core_vm[core];
        // Multithreaded workloads share one address space (one pid);
        // rate-mode copies each run as their own process.
        stream.pid = static_cast<ProcessId>(
            profile.multithreaded ? config.pidBase
                                  : config.pidBase + core);
        stream.totalRefs = total;
        run.streams.add(std::move(stream));
        run.schedule[core].push_back(Slice{core, total, true, true});
    }
    return run;
}

} // namespace

SimulationEngine::SimulationEngine(Machine &machine,
                                   const BenchmarkProfile &profile,
                                   const EngineConfig &config)
    : SimulationEngine(machine, profile, config,
                       defaultSources(machine, profile, config))
{
}

SimulationEngine::SimulationEngine(
    Machine &machine, const BenchmarkProfile &profile,
    const EngineConfig &config,
    std::vector<std::unique_ptr<TraceSource>> sources)
    : loop(std::make_unique<CoreLoop>(
          machine, config,
          compileClassic(machine, profile, config, std::move(sources))))
{
}

SimulationEngine::~SimulationEngine() = default;

RunResult
SimulationEngine::run()
{
    return loop->run().run;
}

} // namespace pomtlb
