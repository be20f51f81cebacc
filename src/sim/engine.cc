#include "sim/engine.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/hash_set.hh"
#include "common/log.hh"
#include "sim/clock_heap.hh"
#include "trace/tracepack.hh"

namespace pomtlb
{

namespace
{

/**
 * Records fetched per TraceSource::fill() when streaming directly
 * from a source (16 KB of records per core — small enough to stay
 * cache-resident, large enough to amortise the virtual call).
 */
constexpr std::uint64_t streamBlockRecords = 1024;

/**
 * Pre-population captures the trace for replay unless a core's
 * stream exceeds this many records (4 Mi records = 64 MB per core);
 * longer runs fall back to re-generating the stream, trading
 * generator time for bounded memory.
 */
constexpr std::uint64_t replayCapRecords = std::uint64_t{1} << 22;

} // namespace

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

SimulationEngine::SimulationEngine(Machine &machine_ref,
                                   const BenchmarkProfile &bench,
                                   const EngineConfig &config)
    : machine(machine_ref), profile(bench), engineConfig(config)
{
    const unsigned cores = machine.numCores();
    sources.reserve(cores);
    if (!config.tracePackPath.empty()) {
        // Replay a recorded pack instead of generating: one shared
        // mmap-ed reader, core c on stream c % stream_count.
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
    initCores();
}

SimulationEngine::SimulationEngine(
    Machine &machine_ref, const BenchmarkProfile &bench,
    const EngineConfig &config,
    std::vector<std::unique_ptr<TraceSource>> trace_sources)
    : machine(machine_ref), profile(bench), engineConfig(config),
      sources(std::move(trace_sources))
{
    simAssert(sources.size() == machine.numCores(),
              "need exactly one trace source per core");
    initCores();
}

void
SimulationEngine::initCores()
{
    const unsigned cores = machine.numCores();
    coreVm = engineConfig.coreVm;
    coreVm.resize(cores, coreVm.empty() ? VmId{1} : coreVm.back());
    // Multithreaded workloads share one address space (one pid);
    // rate-mode copies each run as their own process.
    corePid.resize(cores);
    for (unsigned core = 0; core < cores; ++core) {
        corePid[core] = static_cast<ProcessId>(
            profile.multithreaded ? engineConfig.pidBase
                                  : engineConfig.pidBase + core);
    }
}

void
SimulationEngine::refill(Lane &lane, unsigned core)
{
    if (!replay.empty()) {
        // Replay mode: the block is a zero-copy slice of the captured
        // stream, extended to everything not yet consumed — a lane
        // refills at most once per phase.
        const std::vector<TraceRecord> &records = replay[core];
        simAssert(lane.consumed < records.size(),
                  "captured trace exhausted");
        lane.block = records.data() + lane.consumed;
        lane.blockPos = 0;
        lane.blockLen = records.size() - lane.consumed;
        return;
    }
    const std::size_t got = sources[core]->fill(
        lane.scratch.data(), lane.scratch.size());
    simAssert(got > 0, "trace source exhausted");
    lane.block = lane.scratch.data();
    lane.blockPos = 0;
    lane.blockLen = got;
}

void
SimulationEngine::runPhase(std::vector<Lane> &lanes,
                           std::uint64_t target)
{
    if (target == 0)
        return;

    DataHierarchy &hierarchy = machine.hierarchy();
    const std::uint64_t interval = engineConfig.shootdownIntervalRefs;

    // Seed the scheduler with every lane's current clock. The heap
    // root is always the lexicographic minimum of (clock, core), so
    // lanes advance in exactly the order the old per-step linear
    // scan produced.
    ClockHeap heap;
    heap.reset(lanes.size());
    for (std::uint32_t core = 0; core < lanes.size(); ++core) {
        lanes[core].phaseDone = 0;
        heap.push(lanes[core].clock, core);
    }

    while (!heap.empty()) {
        const std::uint32_t core = heap.topId();
        Lane &lane = lanes[core];
        Mmu &mmu = *lane.mmu;
        const VmId vm = lane.vm;
        const ProcessId pid = lane.pid;
        Cycles clock = lane.clock;

        // Run this lane until it either finishes the phase or stops
        // being globally earliest; only then touch the heap.
        for (;;) {
            if (lane.blockPos == lane.blockLen)
                refill(lane, core);
            const TraceRecord &record = lane.block[lane.blockPos++];
            ++lane.consumed;

            // Non-memory instructions retire at one per cycle.
            clock += record.instGap;
            lane.instructions += record.instGap + 1;

            const MmuResult translation = mmu.translate(
                record.vaddr, record.pageSize, vm, pid, clock);
            clock += translation.cycles;
            lane.pageWalks += translation.walked ? 1 : 0;

            const HierarchyAccessResult data = hierarchy.accessData(
                core, translation.hpa, record.type, clock);
            clock += data.latency;

            // Periodic TLB shootdowns (disabled by default).
            if (interval > 0 &&
                ++refsSinceShootdown >= interval) {
                refsSinceShootdown = 0;
                machine.shootdownPage(record.vaddr, record.pageSize,
                                      vm, pid);
                clock += engineConfig.shootdownCycles;
                ++lane.shootdowns;
            }

            if (++lane.phaseDone == target) {
                lane.clock = clock;
                heap.popTop();
                break;
            }
            if (!heap.staysTop(clock, core)) {
                lane.clock = clock;
                heap.replaceTop(clock);
                break;
            }
        }
    }
}

void
SimulationEngine::prepopulate()
{
    const unsigned cores = machine.numCores();
    const std::uint64_t per_core =
        engineConfig.warmupRefsPerCore + engineConfig.refsPerCore;

    // Capture the stream while enumerating it so the timed run can
    // replay the records instead of re-generating them.
    const bool capture = per_core <= replayCapRecords;
    replay.clear();
    if (capture)
        replay.resize(cores);

    MemoryMap &map = machine.memoryMap();
    U64Set seen(std::size_t{1} << 16);
    std::vector<TraceRecord> chunk;
    if (!capture)
        chunk.resize(streamBlockRecords);

    for (unsigned core = 0; core < cores; ++core) {
        // Replay exactly the stream the timed run will issue.
        TraceSource &dry = *sources[core];
        dry.rewind();
        const VmId vm = coreVm[core];
        const ProcessId pid = corePid[core];
        // Dedup key covers (page, pid, vm): the same page may need
        // separate entries per process and per VM.
        const std::uint64_t space_key =
            mix64((static_cast<std::uint64_t>(pid) << 16) | vm);

        if (capture)
            replay[core].resize(per_core);

        std::uint64_t done = 0;
        std::uint64_t last_key = ~std::uint64_t{0};
        while (done < per_core) {
            TraceRecord *block;
            std::size_t want;
            if (capture) {
                block = replay[core].data() + done;
                want = static_cast<std::size_t>(per_core - done);
            } else {
                block = chunk.data();
                want = static_cast<std::size_t>(
                    std::min<std::uint64_t>(chunk.size(),
                                            per_core - done));
            }
            const std::size_t got = dry.fill(block, want);
            simAssert(got == want, "trace source exhausted during "
                                   "steady-state pre-population");
            for (std::size_t i = 0; i < got; ++i) {
                const TraceRecord &record = block[i];
                const Addr page =
                    pageBase(record.vaddr, record.pageSize);
                const std::uint64_t key = mix64(page) ^ space_key;
                // Page-local runs dominate the streams: skip the set
                // probe when the key repeats back-to-back.
                if (key == last_key)
                    continue;
                last_key = key;
                if (!seen.insert(key))
                    continue;
                const TranslationInfo info = map.ensureMapped(
                    vm, pid, record.vaddr, record.pageSize);
                machine.scheme().prewarm(
                    core, record.vaddr, record.pageSize, vm, pid,
                    info.hpa >> pageShift(record.pageSize));
            }
            done += got;
        }
        // Leave the source rewound whether or not the timed run will
        // replay the capture instead of re-reading it.
        dry.rewind();
    }
}

RunResult
SimulationEngine::run()
{
    const unsigned cores = machine.numCores();

    if (engineConfig.prepopulate)
        prepopulate();
    else
        replay.clear();

    std::vector<Lane> lanes(cores);
    for (unsigned core = 0; core < cores; ++core) {
        Lane &lane = lanes[core];
        lane.mmu = &machine.mmu(core);
        lane.vm = coreVm[core];
        lane.pid = corePid[core];
        if (replay.empty())
            lane.scratch.resize(streamBlockRecords);
    }

    // Warmup: populate TLBs, caches, page tables, POM-TLB.
    const std::uint64_t warmup = engineConfig.warmupRefsPerCore;
    if (warmup > 0) {
        runPhase(lanes, warmup);
        machine.resetStats();
        for (Lane &lane : lanes) {
            lane.instructions = 0;
            lane.pageWalks = 0;
            lane.shootdowns = 0;
        }
    }

    // Measured phase.
    std::vector<Cycles> start_clocks(cores);
    for (unsigned core = 0; core < cores; ++core)
        start_clocks[core] = lanes[core].clock;
    runPhase(lanes, engineConfig.refsPerCore);

    RunResult result;
    result.cores.resize(cores);
    for (unsigned core = 0; core < cores; ++core) {
        CoreRunStats &stats = result.cores[core];
        const Lane &lane = lanes[core];
        const Mmu &mmu = *lane.mmu;
        stats.refs = engineConfig.refsPerCore;
        stats.instructions = lane.instructions;
        stats.cycles = lane.clock - start_clocks[core];
        stats.translationCycles = mmu.totalTranslationCycles();
        stats.l1TlbHits = mmu.l1HitCount();
        stats.l2TlbHits = mmu.l2HitCount();
        stats.lastLevelTlbMisses = mmu.lastLevelMissCount();
        stats.avgPenaltyPerMiss = mmu.avgPenaltyPerMiss();
        stats.pageWalks = lane.pageWalks;
        stats.shootdowns = lane.shootdowns;
    }

    // The capture can be tens of megabytes; do not hold it between
    // runs (a later run() re-captures during its pre-population).
    replay.clear();
    replay.shrink_to_fit();
    return result;
}

} // namespace pomtlb
