/**
 * @file
 * The classic run API: N cores running one workload profile.
 *
 * Each core runs its own trace stream (a seeded generator, a stream
 * of a pomtlb-tracepack-v1 file, or a caller-supplied source).
 * SimulationEngine compiles that into the representation the
 * scenario engine runs on — one tenant with one stream per core, each
 * core scheduled as a single slice — and executes it on the shared
 * core loop (sim/core_loop.hh), which owns the scheduling, the
 * warmup/measured phases and steady-state pre-population.
 *
 * A warmup phase runs before statistics are reset, so reported rates
 * are steady-state.
 */

#ifndef POMTLB_SIM_ENGINE_HH
#define POMTLB_SIM_ENGINE_HH

#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "sim/machine.hh"
#include "trace/profile.hh"
#include "trace/source.hh"

namespace pomtlb
{

/** Engine run parameters. */
struct EngineConfig
{
    /** Measured references per core. */
    std::uint64_t refsPerCore = 150000;
    /** Warmup references per core (stats reset afterwards). */
    std::uint64_t warmupRefsPerCore = 120000;
    /** VM each core's workload runs in (resized to core count). */
    std::vector<VmId> coreVm;
    /** Process id base: core c runs as pid base + c. */
    ProcessId pidBase = 1;
    /** Trace seed (combined with the system seed). */
    std::uint64_t seed = 42;
    /**
     * TLB shootdown injection (Section 2.2): every
     * @c shootdownIntervalRefs references machine-wide, the page of
     * the triggering reference is shot down across all cores and the
     * initiating core is charged @c shootdownCycles (IPI + handler
     * cost). 0 disables injection (the paper notes shootdowns are
     * rare; this knob quantifies "rare").
     */
    std::uint64_t shootdownIntervalRefs = 0;
    Cycles shootdownCycles = 500;
    /**
     * When non-empty, the primary constructor drives every core from
     * this pomtlb-tracepack-v1 file instead of the synthetic
     * generators: core @c c replays pack stream <tt>c %
     * stream_count</tt>, wrapping, straight out of the mapping
     * (trace/tracepack.hh). The pack's content hash joins the
     * sweep-cache job identity (sim/sweep_cache.hh) so memoized
     * campaigns re-execute when the trace changes. Opening throws a
     * path-named TraceError on corrupt input.
     */
    std::string tracePackPath;
    /**
     * Steady-state pre-population: before timed simulation, a dry
     * enumeration of the whole trace installs every touched page in
     * the page tables and in the scheme's persistent translation
     * store (POM-TLB / TSB). This models workloads that have run far
     * longer than the simulated window — the regime the paper
     * measures — so first-touch cold misses do not pollute the
     * steady-state statistics. SRAM TLBs and data caches still warm
     * up normally during the warmup phase. The dry enumeration runs
     * either way — it also rejects a trace that uses one 2 MB region
     * at both page sizes — so false only skips the installation.
     */
    bool prepopulate = true;
};

/** Per-core results of a run. */
struct CoreRunStats
{
    std::uint64_t refs = 0;
    InstCount instructions = 0;
    Cycles cycles = 0;
    /** Post-L1-TLB translation cycles (T_post in DESIGN.md). */
    std::uint64_t translationCycles = 0;
    std::uint64_t l1TlbHits = 0;
    std::uint64_t l2TlbHits = 0;
    std::uint64_t lastLevelTlbMisses = 0;
    /** Average scheme cycles per last-level TLB miss (the paper's P). */
    double avgPenaltyPerMiss = 0.0;
    std::uint64_t pageWalks = 0;
    std::uint64_t shootdowns = 0;
};

/**
 * Machine-wide aggregates over a RunResult's per-core stats —
 * everything the old total*() walker family computed, gathered in
 * one pass and cached.
 */
struct RunTotals
{
    std::uint64_t refs = 0;
    InstCount instructions = 0;
    Cycles cycles = 0;
    std::uint64_t translationCycles = 0;
    std::uint64_t l1TlbHits = 0;
    std::uint64_t l2TlbHits = 0;
    std::uint64_t lastLevelMisses = 0;
    std::uint64_t pageWalks = 0;
    std::uint64_t shootdowns = 0;
    /** Machine-wide average penalty per last-level TLB miss. */
    double avgPenaltyPerMiss = 0.0;
    /** Fraction of last-level TLB misses that needed a page walk. */
    double walkFraction = 0.0;
};

/** Whole-run results. */
struct RunResult
{
    std::vector<CoreRunStats> cores;

    /**
     * Machine-wide aggregates, computed on first use and cached.
     * Callers must not mutate @c cores after calling totals(); build
     * the per-core vector first, aggregate once.
     */
    const RunTotals &totals() const;

  private:
    mutable RunTotals cached;
    mutable bool cachedValid = false;
};

class CoreLoop;

/** Drives one benchmark through one machine. */
class SimulationEngine
{
  public:
    /**
     * @param machine  The machine to drive (state persists between
     *                 run() calls; construct fresh machines for
     *                 independent experiments).
     * @param profile  Benchmark to generate traces for.
     * @param config   Run length, warmup, VM placement, seed.
     */
    SimulationEngine(Machine &machine, const BenchmarkProfile &profile,
                     const EngineConfig &config);

    /**
     * Drive the machine from externally supplied trace sources (one
     * per core — e.g. recorded trace files). @p profile supplies the
     * workload metadata (multithreaded/pid policy and the Table 2
     * constants used by the performance model).
     */
    SimulationEngine(Machine &machine, const BenchmarkProfile &profile,
                     const EngineConfig &config,
                     std::vector<std::unique_ptr<TraceSource>> sources);

    ~SimulationEngine();

    /** Run warmup + measured phases; returns measured-phase stats. */
    RunResult run();

  private:
    /** The compiled run (see sim/core_loop.hh). */
    std::unique_ptr<CoreLoop> loop;
};

} // namespace pomtlb

#endif // POMTLB_SIM_ENGINE_HH
