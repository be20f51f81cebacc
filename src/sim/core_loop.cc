#include "sim/core_loop.hh"

#include <algorithm>
#include <sstream>

#include "common/bitutil.hh"
#include "common/hash_set.hh"
#include "common/log.hh"
#include "sim/clock_heap.hh"
#include "sim/machine.hh"
#include "trace/error.hh"

namespace pomtlb
{

namespace
{

/**
 * Reject a record whose 2 MB region @p stream (or another stream of
 * the same address space) already used at the other page size: the
 * page tables cannot hold both, and a scheme that probes both sizes
 * would silently serve one from the other.
 */
[[noreturn]] void
throwPageSizeConflict(const TenantStream &stream,
                      const TraceRecord &record)
{
    const PageSize other = record.pageSize == PageSize::Large2M
                               ? PageSize::Small4K
                               : PageSize::Large2M;
    std::ostringstream message;
    message << "trace stream '" << stream.source->describe()
            << "' marks virtual address 0x" << std::hex
            << record.vaddr << std::dec << " as a "
            << pageSizeName(record.pageSize)
            << " page, but its 2MB region already holds "
            << pageSizeName(other) << " pages (vm " << stream.vm
            << ", pid " << stream.pid
            << "); a region must keep one page size";
    throw TraceError(message.str());
}

} // namespace

CoreLoop::CoreLoop(Machine &machine_ref, const EngineConfig &config,
                   CompiledRun compiled)
    : machine(machine_ref), engineConfig(config),
      program(std::move(compiled)), state(program.tenants.size())
{
    simAssert(program.schedule.size() == machine.numCores(),
              "core loop needs one slice schedule per core");
    const std::uint64_t total =
        engineConfig.warmupRefsPerCore + engineConfig.refsPerCore;
    for (std::size_t i = 0; i < state.size(); ++i) {
        const ResolvedTenant &tenant = program.tenants[i];
        TenantResult &result = state[i].result;
        result.name = tenant.name;
        result.benchmark = tenant.benchmark;
        result.vm = tenant.vm;
        result.pidBase = tenant.pidBase;
        result.vcpus = tenant.vcpus;
        result.arrivalRefs = tenant.arrivalRefs;
        result.departureRefs = tenant.departureRefs;
        state[i].departsMidRun = tenant.departureRefs < total;
    }
}

void
CoreLoop::clearCounters()
{
    for (TenantState &tenant : state) {
        TenantResult &r = tenant.result;
        r.refs = r.l1TlbHits = r.l2TlbHits = r.lastLevelTlbMisses = 0;
        r.translationCycles = r.pageWalks = 0;
        r.shootdowns = r.migrations = 0;
        r.translationLatency.reset();
    }
    departures = migrations = stormShootdowns = 0;
}

void
CoreLoop::prepopulate(bool install)
{
    TenantStreamSet &streams = program.streams;
    captured = install && streams.captureEligible();
    MemoryMap &map = machine.memoryMap();
    U64Set seen(std::size_t{1} << 16);
    // Page size of every 2 MB region touched, per address space
    // (0 = 4 KB, 1 = 2 MB), shared by the streams of one space.
    U64Map regions(std::size_t{1} << 12);
    std::vector<TraceRecord> chunk;
    if (!captured) {
        chunk.resize(static_cast<std::size_t>(
            TenantStreamSet::streamBlockRecords));
    }

    for (std::size_t s = 0; s < streams.size(); ++s) {
        TenantStream &stream = streams.at(s);
        const std::uint64_t per_stream = stream.totalRefs;
        // Replay exactly the records the timed run will issue.
        TraceSource &dry = *stream.source;
        dry.rewind();
        const VmId vm = stream.vm;
        const ProcessId pid = stream.pid;
        // Dedup key covers (page, size, pid, vm): the same page may
        // need separate entries per process and per VM, and a 4 KB
        // page shares its base with the 2 MB page around it.
        const std::uint64_t space_key =
            mix64((static_cast<std::uint64_t>(pid) << 16) | vm);

        if (captured)
            stream.replay.resize(per_stream);

        std::uint64_t done = 0;
        std::uint64_t last_key = ~std::uint64_t{0};
        while (done < per_stream) {
            TraceRecord *block;
            std::size_t want;
            if (captured) {
                block = stream.replay.data() + done;
                want = static_cast<std::size_t>(per_stream - done);
            } else {
                block = chunk.data();
                want = static_cast<std::size_t>(
                    std::min<std::uint64_t>(chunk.size(),
                                            per_stream - done));
            }
            const std::size_t got = dry.fill(block, want);
            simAssert(got == want, "trace source exhausted during "
                                   "steady-state pre-population");
            for (std::size_t i = 0; i < got; ++i) {
                const TraceRecord &record = block[i];
                const std::uint64_t large =
                    record.pageSize == PageSize::Large2M ? 1 : 0;
                const Addr page =
                    pageBase(record.vaddr, record.pageSize);
                const std::uint64_t key =
                    mix64(page | large) ^ space_key;
                // Page-local runs dominate the streams: skip the set
                // probe when the key repeats back-to-back.
                if (key == last_key)
                    continue;
                last_key = key;
                if (!seen.insert(key))
                    continue;
                const std::uint64_t region_key =
                    mix64(pageBase(record.vaddr, PageSize::Large2M)) ^
                    space_key;
                if (const std::uint64_t *size =
                        regions.find(region_key)) {
                    if (*size != large)
                        throwPageSizeConflict(stream, record);
                } else {
                    regions.insert(region_key, large);
                }
                if (!install)
                    continue;
                const TranslationInfo info = map.ensureMapped(
                    vm, pid, record.vaddr, record.pageSize);
                machine.scheme().prewarm(
                    stream.homeCore, record.vaddr, record.pageSize,
                    vm, pid,
                    info.hpa >> pageShift(record.pageSize));
            }
            done += got;
        }
        // Leave the source rewound whether or not the timed run will
        // replay the capture instead of re-reading it.
        dry.rewind();
    }
}

void
CoreLoop::enterSlice(Lane &lane, const Slice &slice)
{
    lane.cursor = &program.streams.at(slice.stream);
    lane.latency =
        &state[lane.cursor->tenant].result.translationLatency;
    lane.sliceLeft = slice.length;
}

CoreLoop::SliceMark
CoreLoop::markOf(const Lane &lane)
{
    const Mmu &mmu = *lane.mmu;
    SliceMark mark;
    mark.refs = mmu.translationCount();
    mark.l1Hits = mmu.l1HitCount();
    mark.l2Hits = mmu.l2HitCount();
    mark.misses = mmu.lastLevelMissCount();
    mark.translationCycles = mmu.totalTranslationCycles();
    mark.pageWalks = lane.pageWalks;
    return mark;
}

void
CoreLoop::settle(Lane &lane)
{
    const SliceMark now = markOf(lane);
    TenantResult &tenant = state[lane.cursor->tenant].result;
    tenant.refs += now.refs - lane.mark.refs;
    tenant.l1TlbHits += now.l1Hits - lane.mark.l1Hits;
    tenant.l2TlbHits += now.l2Hits - lane.mark.l2Hits;
    tenant.lastLevelTlbMisses += now.misses - lane.mark.misses;
    tenant.translationCycles +=
        now.translationCycles - lane.mark.translationCycles;
    tenant.pageWalks += now.pageWalks - lane.mark.pageWalks;
    lane.mark = now;
}

void
CoreLoop::migratePages(unsigned tenant_index, Lane &lane,
                       Cycles &clock)
{
    const std::uint64_t count = program.migrationPagesPerArrival;
    if (count == 0)
        return;
    const ResolvedTenant &tenant = program.tenants[tenant_index];
    TenantResult &result = state[tenant_index].result;
    MemoryMap &map = machine.memoryMap();
    const std::uint64_t num_pages = std::max<std::uint64_t>(
        1, tenant.footprintBytes >> 12);
    for (std::uint64_t k = 0; k < count; ++k) {
        // A deterministic pseudo-random page of the tenant's
        // footprint moves to a new frame: unmap, shoot down the
        // stale translation everywhere, remap.
        const std::uint64_t index =
            mix64((static_cast<std::uint64_t>(tenant_index) << 32) ^
                  k) %
            num_pages;
        const Addr vaddr = static_cast<Addr>(index) << 12;
        map.unmapPage(tenant.vm, tenant.pidBase, vaddr,
                      PageSize::Small4K);
        machine.shootdownPage(vaddr, PageSize::Small4K, tenant.vm,
                              tenant.pidBase);
        map.ensureMapped(tenant.vm, tenant.pidBase, vaddr,
                         PageSize::Small4K);
        clock += engineConfig.shootdownCycles;
        ++lane.shootdowns;
        ++result.migrations;
        ++migrations;
    }
}

void
CoreLoop::advanceSlice(Lane &lane, unsigned core, Cycles &clock)
{
    settle(lane);
    const std::vector<Slice> &plan = program.schedule[core];
    const Slice &finished = plan[lane.sliceIndex];
    if (finished.lastOfStream) {
        const TenantStream &stream = *lane.cursor;
        TenantState &tenant = state[stream.tenant];
        if (--tenant.activeStreams == 0 && tenant.departsMidRun &&
            !tenant.result.departed) {
            // The tenant's last vCPU retired: the VM tears down,
            // and its translations are flushed machine-wide.
            machine.shootdownVm(stream.vm);
            clock += engineConfig.shootdownCycles;
            ++lane.shootdowns;
            tenant.result.departed = true;
            ++departures;
        }
    }

    ++lane.sliceIndex;
    simAssert(lane.sliceIndex < plan.size(),
              "core ran past its slice schedule");
    const Slice &next = plan[lane.sliceIndex];
    enterSlice(lane, next);

    if (next.firstOfStream) {
        const unsigned tenant_index = lane.cursor->tenant;
        if (!state[tenant_index].arrivalDone) {
            state[tenant_index].arrivalDone = true;
            migratePages(tenant_index, lane, clock);
        }
    }
}

void
CoreLoop::runPhase(std::uint64_t target)
{
    if (target == 0)
        return;

    TenantStreamSet &streams = program.streams;
    DataHierarchy &hierarchy = machine.hierarchy();
    const TranslationScheme &scheme = machine.scheme();
    const std::uint64_t interval =
        engineConfig.shootdownIntervalRefs;
    const std::uint64_t storm_interval = program.storm.intervalRefs;
    const unsigned storm_pages =
        std::max(1u, program.storm.pagesPerBurst);

    // Seed the scheduler with every lane's current clock. The heap
    // root is always the lexicographic minimum of (clock, core).
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
        Cycles clock = lane.clock;

        // Run this lane until it either finishes the phase or stops
        // being globally earliest; only then touch the heap.
        for (;;) {
            if (lane.sliceLeft == 0)
                advanceSlice(lane, core, clock);
            TenantStream &stream = *lane.cursor;
            if (stream.blockPos == stream.blockLen)
                streams.refill(stream);
            const TraceRecord &record =
                stream.block[stream.blockPos++];
            ++stream.consumed;
            --lane.sliceLeft;
            const VmId vm = stream.vm;
            const ProcessId pid = stream.pid;

            // Start the host fetch of what the stream's next record
            // will probe; with several lanes interleaved it usually
            // runs a few references later. A hint only.
            if (stream.blockPos < stream.blockLen) {
                const TraceRecord &next = stream.block[stream.blockPos];
                scheme.prefetch(core, next.vaddr, next.pageSize, vm,
                                pid);
            }

            // Non-memory instructions retire at one per cycle.
            clock += record.instGap;
            lane.instructions += record.instGap + 1;

            const MmuResult translation = mmu.translate(
                record.vaddr, record.pageSize, vm, pid, clock);
            clock += translation.cycles;
            lane.pageWalks += translation.walked ? 1 : 0;
            lane.latency->sample(translation.cycles);

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
                ++state[stream.tenant].result.shootdowns;
            }

            // Shootdown storms: a burst of consecutive pages starting
            // at the triggering reference's page.
            if (storm_interval > 0 &&
                ++refsSinceStorm >= storm_interval) {
                refsSinceStorm = 0;
                const Addr page =
                    pageBase(record.vaddr, record.pageSize);
                const Addr bytes = pageBytes(record.pageSize);
                for (unsigned p = 0; p < storm_pages; ++p) {
                    machine.shootdownPage(
                        page + static_cast<Addr>(p) * bytes,
                        record.pageSize, vm, pid);
                    clock += engineConfig.shootdownCycles;
                }
                lane.shootdowns += storm_pages;
                state[stream.tenant].result.shootdowns += storm_pages;
                stormShootdowns += storm_pages;
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

ScenarioResult
CoreLoop::run()
{
    const unsigned cores = machine.numCores();
    TenantStreamSet &streams = program.streams;

    // Re-arm the per-run mutable state (runs are repeatable).
    clearCounters();
    for (std::size_t i = 0; i < state.size(); ++i) {
        state[i].result.departed = false;
        state[i].arrivalDone = program.tenants[i].arrivalRefs == 0;
        state[i].activeStreams = 0;
    }
    for (std::uint32_t s = 0; s < streams.size(); ++s)
        ++state[streams.at(s).tenant].activeStreams;

    prepopulate(engineConfig.prepopulate);
    if (!engineConfig.prepopulate)
        streams.releaseCaptures();
    streams.beginRun(captured);

    lanes.assign(cores, Lane{});
    for (unsigned core = 0; core < cores; ++core) {
        Lane &lane = lanes[core];
        lane.mmu = &machine.mmu(core);
        enterSlice(lane, program.schedule[core].front());
        lane.mark = markOf(lane);
    }

    // Warmup: populate TLBs, caches, page tables, POM-TLB. Lifecycle
    // flags (arrivals done, departures fired) persist across the
    // boundary; only the statistics reset.
    const std::uint64_t warmup = engineConfig.warmupRefsPerCore;
    if (warmup > 0) {
        runPhase(warmup);
        machine.resetStats();
        for (Lane &lane : lanes) {
            lane.instructions = 0;
            lane.pageWalks = 0;
            lane.shootdowns = 0;
            lane.mark = markOf(lane);
        }
        clearCounters();
    }

    // Measured phase.
    std::vector<Cycles> start_clocks(cores);
    for (unsigned core = 0; core < cores; ++core)
        start_clocks[core] = lanes[core].clock;
    runPhase(engineConfig.refsPerCore);
    for (Lane &lane : lanes)
        settle(lane);

    ScenarioResult result;
    result.run.cores.resize(cores);
    for (unsigned core = 0; core < cores; ++core) {
        CoreRunStats &stats = result.run.cores[core];
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

    result.tenants.reserve(state.size());
    for (const TenantState &tenant : state)
        result.tenants.push_back(tenant.result);
    result.departures = departures;
    result.migrations = migrations;
    result.stormShootdowns = stormShootdowns;

    // The captures can be hundreds of megabytes at scale; do not
    // hold them between runs (a later run() re-captures).
    streams.releaseCaptures();
    return result;
}

} // namespace pomtlb
