/**
 * @file
 * The per-reference core loop every run executes.
 *
 * Classic runs (sim/engine.hh) and consolidation scenarios
 * (sim/scenario.hh) compile to one representation, a CompiledRun:
 *
 *  - tenants: each a guest VM running one workload, with its resolved
 *    arrival/departure positions and resident footprint;
 *  - streams: one TenantStream (trace/interleave.hh) per tenant vCPU,
 *    pinned to a home core and one (VM, process) address space;
 *  - a slice schedule per core: the sequence of (stream, length)
 *    quanta that covers the core's warmup + measured references;
 *  - the shootdown-storm interval and the pages migrated per arrival.
 *
 * A classic run is one tenant with one stream per core, each core
 * scheduled as a single slice, no lifecycle events and no storms.
 * Everything a scenario adds is data in this representation, so both
 * engines share this loop body and this pre-population pass.
 *
 * The loop always advances the core with the smallest local clock,
 * so the cores' memory traffic interleaves at the shared L3/DRAM the
 * way a multicore's would (the Ramulator-style cadence of Section
 * 3.2). Non-memory instructions advance a core's clock at one
 * instruction per cycle; memory references charge translation plus
 * data-path latency. A ClockHeap picks the earliest core in
 * O(log cores), with an O(1) fast path while that core stays
 * earliest; ties go to the lowest core index.
 *
 * The steady-state per-reference path allocates nothing: trace
 * records arrive in blocks, slice switches are index bumps into the
 * precompiled schedule, and per-tenant hit, miss, cycle and walk
 * counts are taken as deltas of the per-core Mmu counters at slice
 * boundaries (exact, since a core runs one stream at a time). The
 * only per-tenant work per reference is one latency-histogram sample.
 */

#ifndef POMTLB_SIM_CORE_LOOP_HH
#define POMTLB_SIM_CORE_LOOP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "sim/engine.hh"
#include "trace/interleave.hh"

namespace pomtlb
{

class Machine;
class Mmu;

/**
 * TLB-shootdown storm schedule: every @c intervalRefs references
 * machine-wide, @c pagesPerBurst consecutive pages starting at the
 * triggering reference's page are shot down across all cores, each
 * charging EngineConfig::shootdownCycles to the initiating core.
 * 0 disables storms.
 */
struct StormSpec
{
    std::uint64_t intervalRefs = 0;
    unsigned pagesPerBurst = 8;
};

/**
 * A tenant after resolution: every defaulted field made concrete.
 * This is the canonical form — the scenario identity JSON (and
 * therefore the scenario hash) is built from it, so an explicit
 * tenant list and a generator producing the same tenants hash
 * identically.
 */
struct ResolvedTenant
{
    std::string name;
    std::string benchmark;
    unsigned vcpus = 1;
    VmId vm = 1;
    ProcessId pidBase = 1;
    std::uint64_t arrivalRefs = 0;
    /** Clamped to the per-core run length (0 resolved to it). */
    std::uint64_t departureRefs = 0;
    /** Effective resident footprint (after overcommit), in bytes. */
    Addr footprintBytes = 0;
    /** From the profile: vCPUs share one address space. */
    bool multithreaded = false;
    /** Trace pack backing this tenant's streams ("" = generator). */
    std::string tracePack;
    /** First pack stream; vCPU @c v reads stream base + v. */
    std::uint32_t traceStreamBase = 0;
};

/** Measured-phase results of one tenant. */
struct TenantResult
{
    std::string name;
    std::string benchmark;
    VmId vm = 1;
    ProcessId pidBase = 1;
    unsigned vcpus = 1;
    std::uint64_t arrivalRefs = 0;
    std::uint64_t departureRefs = 0;
    /** Whether the tenant departed (mid-run shootdown happened). */
    bool departed = false;

    std::uint64_t refs = 0;
    std::uint64_t l1TlbHits = 0;
    std::uint64_t l2TlbHits = 0;
    std::uint64_t lastLevelTlbMisses = 0;
    std::uint64_t translationCycles = 0;
    std::uint64_t pageWalks = 0;
    std::uint64_t shootdowns = 0;
    std::uint64_t migrations = 0;
    /** Per-reference translation-cycle distribution (QoS tail). */
    Log2Histogram translationLatency;
};

/** Whole-run results: per core and per tenant. */
struct ScenarioResult
{
    /** Per-core stats (the classic engine's whole result). */
    RunResult run;
    /** Per-tenant results, in resolved-tenant order. */
    std::vector<TenantResult> tenants;
    /** Mid-run tenant departures in the measured phase. */
    std::uint64_t departures = 0;
    /** Pages migrated in the measured phase. */
    std::uint64_t migrations = 0;
    /** Storm-schedule shootdowns in the measured phase. */
    std::uint64_t stormShootdowns = 0;
};

/** One scheduled quantum of one stream on one core. */
struct Slice
{
    /** Stream id (index into the TenantStreamSet). */
    std::uint32_t stream = 0;
    /** References the stream issues in this quantum. */
    std::uint64_t length = 0;
    /** First quantum of the stream (arrival actions fire). */
    bool firstOfStream = false;
    /** Last quantum of the stream (departure accounting). */
    bool lastOfStream = false;
};

/** A run compiled for the core loop (see the file comment). */
struct CompiledRun
{
    /** Tenants, indexed by TenantStream::tenant. */
    std::vector<ResolvedTenant> tenants;
    /** Every tenant vCPU stream; TenantStream::totalRefs is set. */
    TenantStreamSet streams;
    /** schedule[core] = that core's slice sequence. */
    std::vector<std::vector<Slice>> schedule;
    /** Shootdown storms (disabled by default). */
    StormSpec storm;
    /** Pages migrated (unmap + shootdown + remap) per arrival. */
    std::uint64_t migrationPagesPerArrival = 0;
};

/** Executes one CompiledRun on one machine. */
class CoreLoop
{
  public:
    /**
     * @param machine  The machine to drive (state persists between
     *                 run() calls).
     * @param config   Run length, warmup, shootdown injection and
     *                 costs, pre-population.
     * @param compiled The run to execute; its schedule has one entry
     *                 per machine core.
     */
    CoreLoop(Machine &machine, const EngineConfig &config,
             CompiledRun compiled);

    /** Run warmup + measured phases; returns measured-phase stats. */
    ScenarioResult run();

    /** The tenants this loop runs. */
    const std::vector<ResolvedTenant> &tenants() const
    {
        return program.tenants;
    }

    /**
     * Tenant @p index's counters. The reference stays valid for the
     * loop's lifetime; the values are final once run() returns.
     */
    const TenantResult &tenant(std::size_t index) const
    {
        return state[index].result;
    }

    /** The compiled streams (for recording them to a trace pack). */
    TenantStreamSet &streams() { return program.streams; }

  private:
    /** MMU and lane counters where a lane's current slice began. */
    struct SliceMark
    {
        std::uint64_t refs = 0;
        std::uint64_t l1Hits = 0;
        std::uint64_t l2Hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t translationCycles = 0;
        std::uint64_t pageWalks = 0;
    };

    /** Per-core execution state, sized once per run. */
    struct Lane
    {
        Cycles clock = 0;
        std::uint64_t phaseDone = 0;
        /** References left in the current slice. */
        std::uint64_t sliceLeft = 0;
        /** Index into the core's slice schedule. */
        std::size_t sliceIndex = 0;
        TenantStream *cursor = nullptr;
        /** The cursor tenant's latency histogram. */
        Log2Histogram *latency = nullptr;
        Mmu *mmu = nullptr;
        InstCount instructions = 0;
        std::uint64_t pageWalks = 0;
        std::uint64_t shootdowns = 0;
        SliceMark mark;
    };

    /** Per-tenant runtime: its results plus lifecycle progress. */
    struct TenantState
    {
        TenantResult result;
        /** Streams still scheduled (departure fires at zero). */
        unsigned activeStreams = 0;
        /** Arrival actions already performed (or not needed). */
        bool arrivalDone = false;
        /** Whether the tenant departs before the run ends. */
        bool departsMidRun = false;
    };

    void prepopulate();
    void runPhase(std::uint64_t target);
    /** Point @p lane at @p slice's stream. */
    void enterSlice(Lane &lane, const Slice &slice);
    /** The lane's current MMU and walk counters. */
    static SliceMark markOf(const Lane &lane);
    /** Credit the lane's counters since its mark to its tenant. */
    void settle(Lane &lane);
    /** Switch @p lane to its next slice (lifecycle events fire). */
    void advanceSlice(Lane &lane, unsigned core, Cycles &clock);
    /** Arrival page migrations for tenant @p tenant_index. */
    void migratePages(unsigned tenant_index, Lane &lane,
                      Cycles &clock);
    /** Zero every tenant counter and event total. */
    void clearCounters();

    Machine &machine;
    EngineConfig engineConfig;
    CompiledRun program;
    std::vector<TenantState> state;
    std::vector<Lane> lanes;
    bool captured = false;
    std::uint64_t refsSinceShootdown = 0;
    std::uint64_t refsSinceStorm = 0;
    std::uint64_t departures = 0;
    std::uint64_t migrations = 0;
    std::uint64_t stormShootdowns = 0;
};

} // namespace pomtlb

#endif // POMTLB_SIM_CORE_LOOP_HH
