/**
 * @file
 * Pinned document digests for engine paths the golden fixtures
 * (test_engine_golden.cc) do not reach: periodic shootdown injection,
 * runs without steady-state pre-population, per-core VM placement, a
 * multithreaded workload, trace-pack replay, and a churny multi-tenant
 * scenario with migrations, departures and shootdown storms.
 *
 * Each case rebuilds its document (every per-core RunResult field plus
 * the whole `pomtlb-stats-v1` export, or the full
 * `pomtlb-scenario-v1` document) and compares the 128-bit content
 * hash of its pretty-printed bytes with a digest recorded before the
 * classic and scenario engines were folded into one core loop. A
 * mismatch means a simulated outcome changed. Re-pin only after an
 * intentional modelling change, never to hide an unintended one.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/content_hash.hh"
#include "common/json.hh"
#include "sim/engine.hh"
#include "sim/machine.hh"
#include "sim/scenario.hh"
#include "sim/stats_export.hh"
#include "temp_path.hh"
#include "trace/profile.hh"
#include "trace/source.hh"
#include "trace/tracepack.hh"

namespace pomtlb
{
namespace
{

EngineConfig
pinEngine()
{
    EngineConfig config;
    config.refsPerCore = 3000;
    config.warmupRefsPerCore = 1500;
    config.seed = 42;
    return config;
}

/** Per-core RunResult fields plus the stats export, as one document. */
std::string
classicDocument(Machine &machine, const RunResult &result,
                const std::string &benchmark)
{
    JsonValue cores = JsonValue::array();
    for (const CoreRunStats &core : result.cores) {
        JsonValue object = JsonValue::object();
        object.set("refs", core.refs);
        object.set("instructions", core.instructions);
        object.set("cycles", core.cycles);
        object.set("translation_cycles", core.translationCycles);
        object.set("l1_tlb_hits", core.l1TlbHits);
        object.set("l2_tlb_hits", core.l2TlbHits);
        object.set("last_level_tlb_misses", core.lastLevelTlbMisses);
        object.set("avg_penalty_per_miss", core.avgPenaltyPerMiss);
        object.set("page_walks", core.pageWalks);
        object.set("shootdowns", core.shootdowns);
        cores.push(std::move(object));
    }
    JsonValue doc = JsonValue::object();
    doc.set("cores", std::move(cores));
    doc.set("stats", buildStatsDocument(machine, result, benchmark));
    return doc.dump(2);
}

/** Digest of one classic run of @p benchmark under @p scheme. */
std::string
classicDigest(const std::string &benchmark, const std::string &scheme,
              unsigned cores, const EngineConfig &config)
{
    SystemConfig system = SystemConfig::table1();
    system.numCores = cores;
    Machine machine(system, scheme);
    SimulationEngine engine(machine, ProfileRegistry::byName(benchmark),
                            config);
    const RunResult result = engine.run();
    return ContentHash::of(classicDocument(machine, result, benchmark));
}

TEST(EnginePins, PeriodicShootdownInjection)
{
    EngineConfig config = pinEngine();
    config.shootdownIntervalRefs = 250;
    config.shootdownCycles = 700;
    EXPECT_EQ(classicDigest("mcf", "POM-TLB", 2, config),
              "01a66272ed1787ff7d2d112e6e84b30d");
}

TEST(EnginePins, NoPrepopulation)
{
    EngineConfig config = pinEngine();
    config.prepopulate = false;
    EXPECT_EQ(classicDigest("mcf", "Baseline", 2, config),
              "dbd1fb2888bc0132993cfd3ede88afd2");
}

TEST(EnginePins, PerCoreVms)
{
    EngineConfig config = pinEngine();
    config.coreVm = {1, 2};
    EXPECT_EQ(classicDigest("mcf", "POM-TLB", 4, config),
              "e01bb2af0ee3473cc58af28a00988d39");
}

TEST(EnginePins, MultithreadedWorkload)
{
    EXPECT_EQ(classicDigest("canneal", "TSB", 2, pinEngine()),
              "6ec0c49bceee09c5d79800ae9d62079d");
}

TEST(EnginePins, TracePackReplay)
{
    // Three 2000-record streams on four cores: core 3 shares stream
    // 0, and every stream wraps during the 4500-reference run.
    const std::string path = uniqueTempPath("pins.pack");
    {
        const BenchmarkProfile &profile = ProfileRegistry::byName("mcf");
        TracePackWriter writer(path, {"s0", "s1", "s2"});
        std::vector<TraceRecord> block(2000);
        for (std::uint32_t s = 0; s < 3; ++s) {
            GeneratorSource source(profile, s, 7);
            ASSERT_EQ(source.fill(block.data(), block.size()),
                      block.size());
            writer.append(s, block.data(), block.size());
        }
        writer.close();
    }
    EngineConfig config = pinEngine();
    config.tracePackPath = path;
    const std::string digest =
        classicDigest("mcf", "POM-TLB", 4, config);
    std::filesystem::remove(path);
    EXPECT_EQ(digest, "dab81c319a6e0afd9804c15a7fbe1810");
}

TEST(EnginePins, ChurnyScenarioDocument)
{
    ScenarioSpec spec;
    spec.name = "pinned-churn";
    spec.scheme = "POM-TLB";
    spec.system = SystemConfig::table1();
    spec.system.numCores = 2;
    spec.engine = pinEngine();
    spec.engine.shootdownIntervalRefs = 900;
    spec.tenantCount = 10;
    spec.tenantBenchmarks = {"mcf", "gups", "canneal"};
    spec.residentPerCore = 2;
    spec.overcommitFactor = 1.5;
    spec.migrationPagesPerArrival = 3;
    spec.storm = StormSpec{700, 4};
    spec.timeSliceRefs = 400;

    Machine machine(spec.system, spec.scheme);
    ScenarioEngine engine(machine, spec);
    const ScenarioResult result = engine.run();
    ASSERT_GT(result.departures, 0u);
    ASSERT_GT(result.migrations, 0u);
    ASSERT_GT(result.stormShootdowns, 0u);
    EXPECT_EQ(ContentHash::of(
                  buildScenarioDocument(machine, spec, result).dump(2)),
              "c45286d58c43f18a9da092fc613173d7");
}

} // namespace
} // namespace pomtlb
