/**
 * @file
 * Measurement driver of the repository benchmark (perfbench/README.md).
 *
 * run.py turns the benchmark seed into a workload spec (JSON) and
 * hands it to this program, which links the simulator's library and
 * drives it through its public API only:
 *
 *   perfbench_driver pack SPEC OUT
 *       write the workload's trace pack (mcf_walk's input)
 *   perfbench_driver run SPEC SECONDS TRACE OUT
 *       run the workload in a closed loop (one job after another)
 *       for SECONDS of host time and write the raw timings, the
 *       correctness-check tally and the exact simulated counts to OUT
 *
 * With TRACE = 1, untraced repetitions alternate with traced ones.
 * A traced single-run repetition replays SimulationEngine::run()'s
 * serial call sequence from here — MemoryMap::ensureMapped() and
 * TranslationScheme::prewarm() for pre-population, then Mmu::translate()
 * and DataHierarchy::accessData() in ClockHeap (clock, core) order —
 * with a span around every call, and must reproduce the untraced
 * stats document byte for byte. Scenario and campaign repetitions
 * are timed only at the calls reachable from outside.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sched.h>

#include "common/bitutil.hh"
#include "common/content_hash.hh"
#include "common/hash_set.hh"
#include "common/json.hh"
#include "sim/clock_heap.hh"
#include "sim/engine.hh"
#include "sim/machine.hh"
#include "sim/scenario.hh"
#include "sim/stats_export.hh"
#include "sim/sweep.hh"
#include "sim/sweep_cache.hh"
#include "trace/source.hh"
#include "trace/tracepack.hh"

namespace fs = std::filesystem;
using namespace pomtlb;

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * The engine captures a stream for replay only up to this many
 * records per core (engine.cc's replayCapRecords); the traced run
 * mirrors only that capture path.
 */
constexpr std::uint64_t captureCapRecords = std::uint64_t{1} << 22;

/** Latency samples a run collects at least (tail percentile rule). */
constexpr std::size_t minLatencySamples = 11;

/** Host seconds after which a run stops even when short of samples. */
constexpr double hardStopSeconds = 150.0;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

std::uint64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
            .count());
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** First 48 bits of the document's content hash, as a JSON number. */
std::uint64_t
digest48(const std::string &text)
{
    return std::stoull(ContentHash::of(text).substr(0, 12), nullptr, 16);
}

/** Tally of the correctness checks a run makes. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        if (failures.size() < 16)
            failures.push_back(what);
    }

    JsonValue
    toJson() const
    {
        JsonValue out = JsonValue::object();
        out.set("attempted", attempted);
        out.set("failed", failed);
        JsonValue list = JsonValue::array();
        for (const std::string &failure : failures)
            list.push(failure);
        out.set("failures", std::move(list));
        return out;
    }
};

/** Accumulated host time and call count of one span name. */
struct Span
{
    std::uint64_t ns = 0;
    std::uint64_t calls = 0;

    void
    add(Clock::time_point a, Clock::time_point b)
    {
        ns += nsBetween(a, b);
        ++calls;
    }
};

/** One node of the span tree run.py computes self times from. */
JsonValue
spanNode(const std::string &name, const Span &span,
         std::vector<JsonValue> children = {})
{
    JsonValue node = JsonValue::object();
    node.set("name", name);
    node.set("ns", span.ns);
    node.set("calls", span.calls);
    JsonValue list = JsonValue::array();
    for (JsonValue &child : children)
        list.push(std::move(child));
    node.set("children", std::move(list));
    return node;
}

/** Sum of a `cycle_breakdown` object's values. */
std::uint64_t
breakdownSum(const JsonValue &breakdown)
{
    std::uint64_t sum = 0;
    for (const auto &[name, cycles] : breakdown.members())
        sum += cycles.asUint();
    return sum;
}

/** The `totals` identities every pomtlb-stats-v1 document keeps. */
void
checkStatsDocument(Checks &checks, const JsonValue &doc,
                   std::uint64_t expected_refs)
{
    const JsonValue &totals = doc.at("totals");
    const std::uint64_t translation =
        totals.at("translation_cycles").asUint();
    checks.expect(totals.at("refs").asUint() == expected_refs,
                  "totals.refs != cores x refs");
    checks.expect(translation == totals.at("sram_cycles").asUint() +
                                     totals.at("scheme_cycles").asUint(),
                  "translation_cycles != sram_cycles + scheme_cycles");
    checks.expect(breakdownSum(doc.at("cycle_breakdown")) == translation,
                  "cycle_breakdown does not sum to translation_cycles");
}

/** Raw measurements of one closed-loop repetition. */
struct Rep
{
    double setupSeconds = 0.0;
    double runSeconds = 0.0;
    /** Host seconds of the whole repetition, set-up included. */
    double wallSeconds = 0.0;
    /** Simulated references the repetition executed. */
    std::uint64_t refs = 0;
    /** Jobs the repetition completed. */
    std::uint64_t jobs = 0;
    /** Seconds from the repetition's start to each emitted result. */
    std::vector<double> latencies;

    JsonValue
    toJson() const
    {
        JsonValue out = JsonValue::object();
        out.set("setup_s", setupSeconds);
        out.set("run_s", runSeconds);
        out.set("wall_s", wallSeconds);
        out.set("refs", refs);
        out.set("jobs", jobs);
        JsonValue list = JsonValue::array();
        for (const double latency : latencies)
            list.push(latency);
        out.set("latencies_s", std::move(list));
        return out;
    }
};

/**
 * One benchmark workload: an untraced repetition, an optional traced
 * one, and the exact simulated counts of the last repetition.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Untraced repetition; checks its outputs. */
    virtual Rep runOnce(Checks &checks) = 0;

    /**
     * Traced repetition: the span tree of one run (root first) and
     * the traced output checked against the untraced one.
     */
    virtual JsonValue traceOnce(Checks &checks) = 0;

    /** Exact simulated counts and ratios of the workload. */
    virtual JsonValue counts() const = 0;

  protected:
    /** Check @p text against the first document this workload made. */
    void
    checkDeterministic(Checks &checks, const std::string &text,
                       const char *what)
    {
        if (reference.empty())
            reference = text;
        checks.expect(text == reference,
                      std::string(what) +
                          " differs between runs of the same seed");
    }

    /** The first document this workload produced. */
    std::string reference;
};

// --------------------------------------------------------------------
// Single runs: gups_pom, mcf_walk.
// --------------------------------------------------------------------

/** Spans and layer counts of one traced single run. */
struct SingleTrace
{
    Span root;
    Span prepopulate;
    Span prepopFill;
    Span install;
    Span phase;
    Span reset;
    Span l1Hit;
    Span l2Hit;
    Span miss;
    Span l1d;
    Span l2d;
    Span l3d;
    Span memory;
    std::uint64_t records = 0;
    /** Misses the POM-TLB served from a data-cache-held set line. */
    std::uint64_t pomCached = 0;
    /** Misses the POM-TLB served at all (cache line or DRAM). */
    std::uint64_t pomServed = 0;

    void
    translated(const MmuResult &result, Clock::time_point a,
               Clock::time_point b)
    {
        switch (result.level) {
          case TlbLevel::L1:
            l1Hit.add(a, b);
            return;
          case TlbLevel::L2:
            l2Hit.add(a, b);
            return;
          case TlbLevel::Miss:
            miss.add(a, b);
            if (result.servedBy == ServicePoint::CacheL2D ||
                result.servedBy == ServicePoint::CacheL3D) {
                ++pomCached;
                ++pomServed;
            } else if (result.servedBy == ServicePoint::PomDram) {
                ++pomServed;
            }
            return;
        }
    }

    void
    accessed(const HierarchyAccessResult &result, Clock::time_point a,
             Clock::time_point b)
    {
        switch (result.servedBy) {
          case MemLevel::L1D:
            l1d.add(a, b);
            return;
          case MemLevel::L2D:
            l2d.add(a, b);
            return;
          case MemLevel::L3D:
            l3d.add(a, b);
            return;
          case MemLevel::Memory:
            memory.add(a, b);
            return;
        }
    }

    JsonValue
    tree() const
    {
        return spanNode(
            "sim.run", root,
            {spanNode("sim.prepopulate", prepopulate,
                      {spanNode("trace.fill", prepopFill),
                       spanNode("pagetable.install", install)}),
             spanNode("sim.phase", phase,
                      {spanNode("tlb.l1_hit", l1Hit),
                       spanNode("tlb.l2_hit", l2Hit),
                       spanNode("scheme.miss", miss),
                       spanNode("cache.l1d", l1d),
                       spanNode("cache.l2d", l2d),
                       spanNode("cache.l3d", l3d),
                       spanNode("dram.mem", memory)}),
             spanNode("sim.reset", reset)});
    }
};

/**
 * SimulationEngine::run()'s serial capture-replay path, issued call
 * by call through Machine's public layers with a span around each.
 */
class TracedSingleRun
{
  public:
    TracedSingleRun(Machine &machine_ref, const BenchmarkProfile &bench,
                    const EngineConfig &config,
                    std::vector<std::unique_ptr<TraceSource>> &trace_sources,
                    SingleTrace &spans)
        : machine(machine_ref), profile(bench), engineConfig(config),
          sources(trace_sources), trace(spans)
    {
        if (config.shootdownIntervalRefs != 0)
            throw std::invalid_argument(
                "traced run does not model shootdown injection");
        if (config.warmupRefsPerCore + config.refsPerCore >
            captureCapRecords)
            throw std::invalid_argument(
                "traced run needs the engine's capture-replay path");
    }

    RunResult
    run()
    {
        const Clock::time_point start = Clock::now();
        const unsigned cores = machine.numCores();
        prepopulate();

        std::vector<Lane> lanes(cores);
        for (unsigned core = 0; core < cores; ++core) {
            lanes[core].mmu = &machine.mmu(core);
            lanes[core].vm = VmId{1};
            lanes[core].pid = pidOf(core);
        }

        const std::uint64_t warmup = engineConfig.warmupRefsPerCore;
        if (warmup > 0) {
            runPhase(lanes, warmup);
            const Clock::time_point reset_start = Clock::now();
            machine.resetStats();
            trace.reset.add(reset_start, Clock::now());
            for (Lane &lane : lanes) {
                lane.instructions = 0;
                lane.pageWalks = 0;
            }
        }

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
        }
        replay.clear();
        replay.shrink_to_fit();
        trace.root.add(start, Clock::now());
        return result;
    }

  private:
    struct Lane
    {
        Cycles clock = 0;
        std::uint64_t consumed = 0;
        std::uint64_t phaseDone = 0;
        const TraceRecord *block = nullptr;
        std::uint64_t blockPos = 0;
        std::uint64_t blockLen = 0;
        Mmu *mmu = nullptr;
        VmId vm = 1;
        ProcessId pid = 1;
        InstCount instructions = 0;
        std::uint64_t pageWalks = 0;
    };

    ProcessId
    pidOf(unsigned core) const
    {
        return static_cast<ProcessId>(
            profile.multithreaded ? engineConfig.pidBase
                                  : engineConfig.pidBase + core);
    }

    void
    prepopulate()
    {
        const Clock::time_point start = Clock::now();
        const unsigned cores = machine.numCores();
        const std::uint64_t per_core =
            engineConfig.warmupRefsPerCore + engineConfig.refsPerCore;
        replay.assign(cores, {});
        MemoryMap &map = machine.memoryMap();
        U64Set seen(std::size_t{1} << 16);
        for (unsigned core = 0; core < cores; ++core) {
            TraceSource &dry = *sources[core];
            const ProcessId pid = pidOf(core);
            const VmId vm = VmId{1};
            const std::uint64_t space_key =
                mix64((static_cast<std::uint64_t>(pid) << 16) | vm);
            replay[core].resize(per_core);

            Clock::time_point a = Clock::now();
            dry.rewind();
            const std::size_t got = dry.fill(
                replay[core].data(), static_cast<std::size_t>(per_core));
            trace.prepopFill.add(a, Clock::now());
            trace.records += got;
            if (got != per_core)
                throw std::runtime_error("trace source exhausted");

            std::uint64_t last_key = ~std::uint64_t{0};
            for (const TraceRecord &record : replay[core]) {
                const Addr page = pageBase(record.vaddr, record.pageSize);
                const std::uint64_t key = mix64(page) ^ space_key;
                if (key == last_key)
                    continue;
                last_key = key;
                if (!seen.insert(key))
                    continue;
                a = Clock::now();
                const TranslationInfo info = map.ensureMapped(
                    vm, pid, record.vaddr, record.pageSize);
                machine.scheme().prewarm(
                    core, record.vaddr, record.pageSize, vm, pid,
                    info.hpa >> pageShift(record.pageSize));
                trace.install.add(a, Clock::now());
            }
            a = Clock::now();
            dry.rewind();
            trace.prepopFill.ns += nsBetween(a, Clock::now());
        }
        trace.prepopulate.add(start, Clock::now());
    }

    void
    runPhase(std::vector<Lane> &lanes, std::uint64_t target)
    {
        if (target == 0)
            return;
        const Clock::time_point start = Clock::now();
        DataHierarchy &hierarchy = machine.hierarchy();
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
            for (;;) {
                if (lane.blockPos == lane.blockLen) {
                    const std::vector<TraceRecord> &records = replay[core];
                    if (lane.consumed >= records.size())
                        throw std::runtime_error("captured trace exhausted");
                    lane.block = records.data() + lane.consumed;
                    lane.blockPos = 0;
                    lane.blockLen = records.size() - lane.consumed;
                }
                const TraceRecord &record = lane.block[lane.blockPos++];
                ++lane.consumed;
                clock += record.instGap;
                lane.instructions += record.instGap + 1;

                const Clock::time_point a = Clock::now();
                const MmuResult translation = mmu.translate(
                    record.vaddr, record.pageSize, vm, pid, clock);
                const Clock::time_point b = Clock::now();
                clock += translation.cycles;
                lane.pageWalks += translation.walked ? 1 : 0;
                const HierarchyAccessResult data = hierarchy.accessData(
                    core, translation.hpa, record.type, clock);
                const Clock::time_point c = Clock::now();
                clock += data.latency;
                trace.translated(translation, a, b);
                trace.accessed(data, b, c);

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
        trace.phase.add(start, Clock::now());
    }

    Machine &machine;
    const BenchmarkProfile &profile;
    const EngineConfig &engineConfig;
    std::vector<std::unique_ptr<TraceSource>> &sources;
    SingleTrace &trace;
    std::vector<std::vector<TraceRecord>> replay;
};

/** One classic run of one benchmark on one scheme. */
class SingleWorkload : public Workload
{
  public:
    explicit SingleWorkload(const JsonValue &spec)
        : profile(ProfileRegistry::byName(spec.at("benchmark").asString())),
          scheme(spec.at("scheme").asString())
    {
        system = SystemConfig::table1();
        system.numCores = static_cast<unsigned>(spec.at("cores").asUint());
        engine.refsPerCore = spec.at("refs").asUint();
        engine.warmupRefsPerCore = spec.at("warmup").asUint();
        engine.seed = spec.at("seed").asUint();
        if (spec.has("pack"))
            engine.tracePackPath = spec.at("pack").at("path").asString();
    }

    Rep
    runOnce(Checks &checks) override
    {
        Rep rep;
        const Clock::time_point start = Clock::now();
        Machine machine(system, scheme);
        SimulationEngine simulation(machine, profile, engine);
        const Clock::time_point ready = Clock::now();
        const RunResult result = simulation.run();
        const Clock::time_point done = Clock::now();
        rep.setupSeconds = secondsBetween(start, ready);
        rep.runSeconds = secondsBetween(ready, done);
        rep.wallSeconds = secondsBetween(start, done);
        rep.refs = totalRefs();
        rep.jobs = 1;
        rep.latencies.push_back(rep.wallSeconds);
        record(machine, result, checks);
        return rep;
    }

    JsonValue
    traceOnce(Checks &checks) override
    {
        Machine machine(system, scheme);
        std::vector<std::unique_ptr<TraceSource>> sources =
            makeSources(machine);
        SingleTrace spans;
        TracedSingleRun traced(machine, profile, engine, sources, spans);
        const RunResult result = traced.run();
        const std::string text =
            buildStatsDocument(machine, result, profile.name).dump();
        checks.expect(text == reference,
                      "traced stats document differs from the "
                      "untraced engine's");
        tracedCounts = JsonValue::object();
        tracedCounts.set("trace_records", spans.records);
        tracedCounts.set("pom_cached", spans.pomCached);
        tracedCounts.set("pom_served", spans.pomServed);
        return spans.tree();
    }

    JsonValue
    counts() const override
    {
        JsonValue out = simCounts;
        for (const auto &[name, value] : tracedCounts.members())
            out.set(name, value);
        return out;
    }

  private:
    std::uint64_t
    totalRefs() const
    {
        return std::uint64_t{system.numCores} *
               (engine.refsPerCore + engine.warmupRefsPerCore);
    }

    /** The sources SimulationEngine's primary constructor builds. */
    std::vector<std::unique_ptr<TraceSource>>
    makeSources(const Machine &machine) const
    {
        std::vector<std::unique_ptr<TraceSource>> sources;
        const unsigned cores = machine.numCores();
        if (!engine.tracePackPath.empty()) {
            auto pack =
                std::make_shared<TracePackReader>(engine.tracePackPath);
            for (unsigned core = 0; core < cores; ++core)
                sources.push_back(std::make_unique<PackStreamSource>(
                    pack, core % pack->streamCount()));
        } else {
            const std::uint64_t seed = engine.seed ^ machine.config().seed;
            for (unsigned core = 0; core < cores; ++core)
                sources.push_back(
                    std::make_unique<GeneratorSource>(profile, core, seed));
        }
        return sources;
    }

    void
    record(Machine &machine, const RunResult &result, Checks &checks)
    {
        const JsonValue doc =
            buildStatsDocument(machine, result, profile.name);
        const std::string text = doc.dump();
        checkStatsDocument(checks, doc,
                           std::uint64_t{system.numCores} *
                               engine.refsPerCore);
        checkDeterministic(checks, text, "stats document");

        const RunTotals &totals = result.totals();
        simCounts = JsonValue::object();
        simCounts.set("digest", digest48(text));
        simCounts.set("cycles", std::uint64_t{totals.cycles});
        simCounts.set("translation_cycles", totals.translationCycles);
        simCounts.set("page_walks", totals.pageWalks);
        simCounts.set("walk_fraction", totals.walkFraction);
        simCounts.set("row_hit_ratio",
                      machine.mainMemory().rowBufferHitRate());
        simCounts.set("stacked_row_hit_ratio",
                      machine.dieStackedMemory().rowBufferHitRate());
    }

    const BenchmarkProfile &profile;
    std::string scheme;
    SystemConfig system;
    EngineConfig engine;
    JsonValue simCounts = JsonValue::object();
    JsonValue tracedCounts = JsonValue::object();
};

/** Write mcf_walk's pack: one generator stream per core. */
void
writePack(const JsonValue &spec, const std::string &out)
{
    const BenchmarkProfile &profile =
        ProfileRegistry::byName(spec.at("benchmark").asString());
    const JsonValue &pack = spec.at("pack");
    const std::uint64_t streams = pack.at("streams").asUint();
    const std::uint64_t records = pack.at("records").asUint();
    std::vector<std::string> names;
    for (std::uint64_t s = 0; s < streams; ++s)
        names.push_back("core" + std::to_string(s));
    TracePackWriter writer(out, names);
    std::vector<TraceRecord> block(records);
    for (std::uint64_t s = 0; s < streams; ++s) {
        GeneratorSource source(profile, static_cast<CoreId>(s),
                               pack.at("seed").asUint());
        source.fill(block.data(), block.size());
        writer.append(static_cast<std::uint32_t>(s), block.data(),
                      block.size());
    }
    writer.close();
}

// --------------------------------------------------------------------
// tenant_churn: a multi-tenant scenario on the second core loop.
// --------------------------------------------------------------------

class ScenarioWorkload : public Workload
{
  public:
    explicit ScenarioWorkload(const JsonValue &spec_json)
    {
        spec.name = "perfbench-tenant-churn";
        spec.scheme = spec_json.at("scheme").asString();
        spec.system.numCores =
            static_cast<unsigned>(spec_json.at("cores").asUint());
        spec.engine.refsPerCore = spec_json.at("refs").asUint();
        spec.engine.warmupRefsPerCore = spec_json.at("warmup").asUint();
        spec.engine.seed = spec_json.at("seed").asUint();
        for (const JsonValue &name :
             spec_json.at("tenant_benchmarks").elements())
            spec.tenantBenchmarks.push_back(name.asString());
        spec.tenantCount =
            static_cast<unsigned>(spec.tenantBenchmarks.size());
        spec.residentPerCore = static_cast<unsigned>(
            spec_json.at("resident_per_core").asUint());
        spec.overcommitFactor = spec_json.at("overcommit").asNumber();
        spec.migrationPagesPerArrival =
            spec_json.at("migration_pages").asUint();
        spec.storm.intervalRefs = spec_json.at("storm_interval").asUint();
        spec.storm.pagesPerBurst =
            static_cast<unsigned>(spec_json.at("storm_pages").asUint());
        spec.timeSliceRefs = spec_json.at("time_slice").asUint();
    }

    Rep
    runOnce(Checks &checks) override
    {
        Rep rep;
        const Clock::time_point start = Clock::now();
        Machine machine(spec.system, spec.scheme);
        ScenarioEngine scenario(machine, spec);
        const Clock::time_point ready = Clock::now();
        const ScenarioResult result = scenario.run();
        const Clock::time_point done = Clock::now();
        rep.setupSeconds = secondsBetween(start, ready);
        rep.runSeconds = secondsBetween(ready, done);
        rep.wallSeconds = secondsBetween(start, done);
        rep.refs = std::uint64_t{spec.system.numCores} *
                   (spec.engine.refsPerCore + spec.engine.warmupRefsPerCore);
        rep.jobs = 1;
        rep.latencies.push_back(rep.wallSeconds);
        record(machine, result, checks);
        return rep;
    }

    JsonValue
    traceOnce(Checks &checks) override
    {
        Machine machine(spec.system, spec.scheme);
        ScenarioEngine scenario(machine, spec);
        Span run;
        const Clock::time_point start = Clock::now();
        const ScenarioResult result = scenario.run();
        run.add(start, Clock::now());
        const std::string text =
            buildScenarioDocument(machine, spec, result).dump();
        checks.expect(text == reference,
                      "traced scenario document differs from the "
                      "untraced one");
        return spanNode("sim.scenario_run", run);
    }

    JsonValue counts() const override { return simCounts; }

  private:
    void
    record(Machine &machine, const ScenarioResult &result, Checks &checks)
    {
        const JsonValue doc = buildScenarioDocument(machine, spec, result);
        const std::string text = doc.dump();
        const std::uint64_t expected =
            std::uint64_t{spec.system.numCores} * spec.engine.refsPerCore;
        std::uint64_t tenant_refs = 0;
        std::uint64_t worst_p99 = 0;
        for (const JsonValue &tenant : doc.at("tenants").elements()) {
            tenant_refs += tenant.at("refs").asUint();
            worst_p99 = std::max(
                worst_p99, tenant.at("p99_translation_cycles").asUint());
        }
        checks.expect(tenant_refs == expected,
                      "tenant refs do not add up to cores x refs");
        checkStatsDocument(checks, doc.at("stats"), expected);
        checkDeterministic(checks, text, "scenario document");

        const RunTotals &totals = result.run.totals();
        simCounts = JsonValue::object();
        simCounts.set("digest", digest48(text));
        simCounts.set("cycles", std::uint64_t{totals.cycles});
        simCounts.set("translation_cycles", totals.translationCycles);
        simCounts.set("page_walks", totals.pageWalks);
        simCounts.set("walk_fraction", totals.walkFraction);
        simCounts.set("row_hit_ratio",
                      machine.mainMemory().rowBufferHitRate());
        simCounts.set("shootdowns", totals.shootdowns);
        simCounts.set("migrations", result.migrations);
        simCounts.set("worst_p99_cycles", worst_p99);
    }

    ScenarioSpec spec;
    JsonValue simCounts = JsonValue::object();
};

// --------------------------------------------------------------------
// campaign: a memoized SweepService campaign with a pre-seeded cache.
// --------------------------------------------------------------------

class CampaignWorkload : public Workload
{
  public:
    CampaignWorkload(const JsonValue &spec, const std::string &work_dir)
        : workers(static_cast<unsigned>(spec.at("workers").asUint())),
          seedCache(work_dir + "/seed-cache"),
          runCache(work_dir + "/run-cache"),
          journal(work_dir + "/run.journal")
    {
        for (const JsonValue &job : spec.at("requests").elements()) {
            requests.push_back(
                ExperimentRequest::of(job.at("benchmark").asString(),
                                      job.at("scheme").asString())
                    .withCores(static_cast<unsigned>(job.at("cores").asUint()))
                    .withRefs(job.at("refs").asUint(),
                              job.at("warmup").asUint())
                    .withSeed(job.at("seed").asUint()));
        }
        std::vector<ExperimentRequest> preseeded;
        for (const JsonValue &index : spec.at("preseed").elements())
            preseeded.push_back(requests.at(index.asUint()));
        preseedCount = preseeded.size();

        // Untimed: the cache every repetition starts from.
        fs::remove_all(seedCache);
        SweepServiceOptions options;
        options.cacheDir = seedCache;
        options.jobs = workers;
        SweepService(options).run(preseeded);
    }

    Rep
    runOnce(Checks &checks) override
    {
        fs::remove_all(runCache);
        fs::remove(journal);
        fs::copy(seedCache, runCache, fs::copy_options::recursive);

        Rep rep;
        std::vector<double> exec_walls;
        bool first_cached = false;
        SweepServiceOptions options;
        options.cacheDir = runCache;
        options.journalPath = journal;
        options.jobs = workers;
        const Clock::time_point start = Clock::now();
        SweepService service(options);
        const JsonValue doc = service.run(
            requests,
            [&](const SweepJobReport &report, const JsonValue &) {
                rep.latencies.push_back(
                    secondsBetween(start, Clock::now()));
                if (report.index == 0)
                    first_cached = report.source == JobSource::Cache;
                if (report.source == JobSource::Executed) {
                    exec_walls.push_back(report.wallSeconds);
                    const ExperimentRequest &job = requests[report.index];
                    rep.refs += std::uint64_t{job.config.system.numCores} *
                                (job.config.engine.refsPerCore +
                                 job.config.engine.warmupRefsPerCore);
                }
            });
        const Clock::time_point done = Clock::now();
        rep.runSeconds = secondsBetween(start, done);
        rep.wallSeconds = rep.runSeconds;
        rep.jobs = rep.latencies.size();
        // The first request is always pre-seeded, so its emission
        // marks the end of the service's set-up: hashing, cache and
        // journal opening, cache probes.
        rep.setupSeconds = rep.latencies.empty() ? 0.0 : rep.latencies[0];
        lastExecWalls = exec_walls;
        lastWall = rep.runSeconds;
        record(service.stats(), doc, first_cached, checks);
        return rep;
    }

    JsonValue
    traceOnce(Checks &checks) override
    {
        const Rep rep = runOnce(checks);
        Span campaign;
        campaign.ns = static_cast<std::uint64_t>(rep.runSeconds * 1e9);
        campaign.calls = 1;
        return spanNode("sweep.campaign", campaign);
    }

    JsonValue
    counts() const override
    {
        JsonValue out = simCounts;
        double busy = 0.0;
        JsonValue walls = JsonValue::array();
        for (const double wall : lastExecWalls) {
            busy += wall;
            walls.push(wall);
        }
        out.set("job_exec_s", std::move(walls));
        out.set("worker_busy_ratio",
                lastWall > 0.0 ? busy / (workers * lastWall) : 0.0);
        return out;
    }

  private:
    void
    record(const SweepServiceStats &stats, const JsonValue &doc,
           bool first_cached, Checks &checks)
    {
        checks.expect(stats.executed + stats.cacheHits + stats.journalHits +
                              stats.deduplicated ==
                          stats.jobs,
                      "executed + cached + journal + dedup != jobs");
        checks.expect(stats.jobs == requests.size(),
                      "campaign job count != requests");
        checks.expect(stats.cacheHits == preseedCount,
                      "cache hits != pre-seeded jobs");
        checks.expect(first_cached,
                      "first request was not served from the cache");
        std::uint64_t translation = 0;
        std::uint64_t walks = 0;
        for (const JsonValue &run : doc.at("runs").elements()) {
            const JsonValue &summary = run.at("summary");
            const std::uint64_t cycles =
                summary.at("translation_cycles").asUint();
            const std::uint64_t scheme_cycles =
                summary.at("scheme_cycles").asUint();
            checks.expect(summary.at("refs").asUint() ==
                              run.at("cores").asUint() *
                                  run.at("refs_per_core").asUint(),
                          "job refs != cores x refs_per_core");
            checks.expect(cycles ==
                              summary.at("sram_cycles").asUint() +
                                  scheme_cycles,
                          "job translation_cycles != sram + scheme");
            checks.expect(breakdownSum(summary.at("cycle_breakdown")) ==
                              scheme_cycles,
                          "job cycle_breakdown does not sum to "
                          "scheme_cycles");
            translation += cycles;
            walks += summary.at("page_walks").asUint();
        }
        const std::string text = doc.dump();
        checkDeterministic(checks, text, "campaign document");

        simCounts = JsonValue::object();
        simCounts.set("digest", digest48(text));
        simCounts.set("translation_cycles", translation);
        simCounts.set("page_walks", walks);
        simCounts.set("jobs", std::uint64_t{stats.jobs});
        simCounts.set("executed", std::uint64_t{stats.executed});
        simCounts.set("cache_hits", std::uint64_t{stats.cacheHits});
    }

    std::vector<ExperimentRequest> requests;
    std::size_t preseedCount = 0;
    unsigned workers;
    std::string seedCache;
    std::string runCache;
    std::string journal;
    std::vector<double> lastExecWalls;
    double lastWall = 0.0;
    JsonValue simCounts = JsonValue::object();
};

std::unique_ptr<Workload>
makeWorkload(const JsonValue &spec, const std::string &work_dir)
{
    const std::string &kind = spec.at("kind").asString();
    if (kind == "single")
        return std::make_unique<SingleWorkload>(spec);
    if (kind == "scenario")
        return std::make_unique<ScenarioWorkload>(spec);
    if (kind == "campaign")
        return std::make_unique<CampaignWorkload>(spec, work_dir);
    throw std::invalid_argument("unknown workload kind '" + kind + "'");
}

/** The CPUs this process may run on. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &set))
                cpus.push_back(cpu);
        }
    }
    return cpus;
}

/**
 * Run the calling thread on @p cpu only. Best effort: where pinning is
 * refused, repetitions run wherever the scheduler puts them.
 */
void
pinTo(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    (void)sched_setaffinity(0, sizeof(set), &set);
}

/**
 * The closed loop: one untimed warm-up repetition, then repetitions
 * until @p seconds have passed and enough latency samples exist.
 * Traced runs alternate untraced and traced repetitions.
 *
 * Each repetition is pinned to the next allowed CPU in turn. On a
 * shared host the other tenants of a physical core can slow every
 * repetition that stays on it for minutes; rotating lets a run's
 * best-of-N see each core.
 */
JsonValue
measure(Workload &workload, double seconds, bool traced)
{
    const std::vector<int> cpus = allowedCpus();
    std::size_t next_cpu = 0;
    auto rotate = [&] {
        if (!cpus.empty())
            pinTo(cpus[next_cpu++ % cpus.size()]);
    };

    Checks checks;
    rotate();
    workload.runOnce(checks);

    JsonValue reps = JsonValue::array();
    JsonValue trees = JsonValue::array();
    std::size_t samples = 0;
    const Clock::time_point start = Clock::now();
    for (;;) {
        const double elapsed = secondsBetween(start, Clock::now());
        const bool enough =
            samples >= minLatencySamples && (!traced || trees.size() > 0);
        if ((elapsed >= seconds && enough) || elapsed >= hardStopSeconds)
            break;
        rotate();
        const Rep rep = workload.runOnce(checks);
        samples += rep.latencies.size();
        reps.push(rep.toJson());
        if (traced)
            trees.push(workload.traceOnce(checks));
    }

    JsonValue out = JsonValue::object();
    out.set("reps", std::move(reps));
    out.set("traced", std::move(trees));
    out.set("counts", workload.counts());
    out.set("checks", checks.toJson());
    return out;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver pack SPEC OUT\n"
                 "       perfbench_driver run SPEC SECONDS TRACE OUT\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const std::vector<std::string> args(argv + 1, argv + argc);
        if (args.size() == 3 && args[0] == "pack") {
            writePack(JsonValue::parse(readFile(args[1])), args[2]);
            return 0;
        }
        if (args.size() != 5 || args[0] != "run")
            return usage();
        const JsonValue spec = JsonValue::parse(readFile(args[1]));
        const double seconds = std::stod(args[2]);
        const bool traced = args[3] == "1";
        const std::string out_path = args[4];
        const std::string work_dir =
            fs::path(out_path).parent_path().string();
        std::unique_ptr<Workload> workload = makeWorkload(spec, work_dir);
        const JsonValue result = measure(*workload, seconds, traced);
        std::ofstream out(out_path);
        result.write(out);
        out << "\n";
        if (!out)
            throw std::runtime_error("cannot write " + out_path);
        return 0;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench_driver: %s\n", error.what());
        return 1;
    }
}
