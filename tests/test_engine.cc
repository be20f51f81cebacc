/**
 * @file
 * Simulation-engine tests: determinism, warmup/stat-reset semantics,
 * pre-population, multi-VM placement, and result aggregation.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "common/rng.hh"
#include "sim/engine.hh"
#include "sim/stats_export.hh"
#include "trace/source.hh"
#include "trace/tracepack.hh"
#include "temp_path.hh"

namespace pomtlb
{
namespace
{

EngineConfig
quickEngine()
{
    EngineConfig config;
    config.refsPerCore = 3000;
    config.warmupRefsPerCore = 1000;
    return config;
}

SystemConfig
twoCores()
{
    SystemConfig config = SystemConfig::table1();
    config.numCores = 2;
    return config;
}

TEST(Engine, RunProducesPerCoreStats)
{
    Machine machine(twoCores(), "POM-TLB");
    SimulationEngine engine(
        machine, ProfileRegistry::byName("gups"), quickEngine());
    const RunResult result = engine.run();
    ASSERT_EQ(result.cores.size(), 2u);
    for (const auto &core : result.cores) {
        EXPECT_EQ(core.refs, 3000u);
        EXPECT_GT(core.instructions, core.refs);
        EXPECT_GT(core.cycles, 0u);
    }
    EXPECT_EQ(result.totals().refs, 6000u);
}

TEST(Engine, DeterministicAcrossRuns)
{
    const auto &profile = ProfileRegistry::byName("mcf");
    Machine machine_a(twoCores(), "POM-TLB");
    SimulationEngine engine_a(machine_a, profile, quickEngine());
    const RunResult a = engine_a.run();

    Machine machine_b(twoCores(), "POM-TLB");
    SimulationEngine engine_b(machine_b, profile, quickEngine());
    const RunResult b = engine_b.run();

    EXPECT_EQ(a.totals().translationCycles, b.totals().translationCycles);
    EXPECT_EQ(a.totals().lastLevelMisses, b.totals().lastLevelMisses);
    for (std::size_t i = 0; i < a.cores.size(); ++i)
        EXPECT_EQ(a.cores[i].cycles, b.cores[i].cycles);
}

TEST(Engine, SchemePrefetchLeavesTheStatsDocumentIdentical)
{
    // The core loop hints each lane's next record to the scheme.
    // Hinting thousands more addresses, before the run and after
    // it, must not change one byte of the statistics document.
    const auto &profile = ProfileRegistry::byName("gups");
    const auto hint = [](Machine &machine) {
        Rng rng(99);
        for (int i = 0; i < 4096; ++i) {
            const PageSize size = rng.chance(0.5) ? PageSize::Small4K
                                                  : PageSize::Large2M;
            machine.scheme().prefetch(
                static_cast<CoreId>(i % 2), rng.below(Addr{1} << 40),
                size, static_cast<VmId>(1 + rng.below(4)), 1);
        }
    };

    Machine plain(twoCores(), "POM-TLB");
    const RunResult a =
        SimulationEngine(plain, profile, quickEngine()).run();
    const std::string want =
        buildStatsDocument(plain, a, "gups").dump();

    Machine hinted(twoCores(), "POM-TLB");
    hint(hinted);
    const RunResult b =
        SimulationEngine(hinted, profile, quickEngine()).run();
    EXPECT_EQ(buildStatsDocument(hinted, b, "gups").dump(), want);
    hint(hinted);
    EXPECT_EQ(buildStatsDocument(hinted, b, "gups").dump(), want);
}

TEST(Engine, SeedChangesResults)
{
    const auto &profile = ProfileRegistry::byName("gups");
    EngineConfig config_a = quickEngine();
    EngineConfig config_b = quickEngine();
    config_b.seed = 777;

    Machine machine_a(twoCores(), "POM-TLB");
    const RunResult a =
        SimulationEngine(machine_a, profile, config_a).run();
    Machine machine_b(twoCores(), "POM-TLB");
    const RunResult b =
        SimulationEngine(machine_b, profile, config_b).run();
    EXPECT_NE(a.totals().translationCycles,
              b.totals().translationCycles);
}

TEST(Engine, PrepopulationEliminatesColdWalks)
{
    const auto &profile = ProfileRegistry::byName("gups");
    EngineConfig with = quickEngine();
    EngineConfig without = quickEngine();
    without.prepopulate = false;

    Machine machine_a(twoCores(), "POM-TLB");
    const RunResult pre =
        SimulationEngine(machine_a, profile, with).run();
    Machine machine_b(twoCores(), "POM-TLB");
    const RunResult cold =
        SimulationEngine(machine_b, profile, without).run();

    EXPECT_LT(pre.totals().walkFraction, 0.02);
    EXPECT_GT(cold.totals().walkFraction, pre.totals().walkFraction);
}

TEST(Engine, WarmupStatsAreDiscarded)
{
    const auto &profile = ProfileRegistry::byName("gups");
    Machine machine(twoCores(), "POM-TLB");
    SimulationEngine engine(machine, profile, quickEngine());
    const RunResult result = engine.run();
    // Only measured-phase references are counted in the MMU stats.
    std::uint64_t translations = 0;
    for (CoreId core = 0; core < 2; ++core)
        translations += machine.mmu(core).translationCount();
    EXPECT_EQ(translations, result.totals().refs);
}

TEST(Engine, MultiVmPlacement)
{
    const auto &profile = ProfileRegistry::byName("gups");
    EngineConfig config = quickEngine();
    config.coreVm = {1, 2};
    Machine machine(twoCores(), "POM-TLB");
    SimulationEngine engine(machine, profile, config);
    EXPECT_NO_THROW(engine.run());
    // Both VMs really exist in the memory map.
    EXPECT_EQ(machine.memoryMap().vmCount(), 2u);
}

TEST(Engine, BaselineWalksEveryMiss)
{
    const auto &profile = ProfileRegistry::byName("gups");
    Machine machine(twoCores(), "Baseline");
    SimulationEngine engine(machine, profile, quickEngine());
    const RunResult result = engine.run();
    EXPECT_GT(result.totals().lastLevelMisses, 0u);
    EXPECT_DOUBLE_EQ(result.totals().walkFraction, 1.0);
    EXPECT_GT(result.totals().avgPenaltyPerMiss, 0.0);
}

TEST(Engine, PackReplayMatchesTheGeneratorRunExactly)
{
    const auto &profile = ProfileRegistry::byName("mcf");
    const SystemConfig system = twoCores();
    const EngineConfig config = quickEngine();

    // The generator-driven reference run.
    Machine machine_a(system, "POM-TLB");
    SimulationEngine engine_a(machine_a, profile, config);
    const RunResult a = engine_a.run();

    // Capture the exact streams that run consumed — same combined
    // seed, one stream per core, warmup + measured records...
    const std::string path = uniqueTempPath("replay.pack");
    {
        TracePackWriter writer(path, {"core0", "core1"});
        const std::uint64_t per_core =
            config.warmupRefsPerCore + config.refsPerCore;
        std::vector<TraceRecord> block(1024);
        for (unsigned core = 0; core < 2; ++core) {
            GeneratorSource source(profile, core,
                                   config.seed ^ system.seed);
            std::uint64_t left = per_core;
            while (left > 0) {
                const std::size_t got = source.fill(
                    block.data(),
                    static_cast<std::size_t>(std::min<std::uint64_t>(
                        block.size(), left)));
                writer.append(core, block.data(), got);
                left -= got;
            }
        }
        writer.close();
    }

    // ...and replay it: every per-core figure matches exactly.
    EngineConfig replay = config;
    replay.tracePackPath = path;
    Machine machine_b(system, "POM-TLB");
    SimulationEngine engine_b(machine_b, profile, replay);
    const RunResult b = engine_b.run();

    ASSERT_EQ(a.cores.size(), b.cores.size());
    for (std::size_t i = 0; i < a.cores.size(); ++i) {
        EXPECT_EQ(a.cores[i].cycles, b.cores[i].cycles);
        EXPECT_EQ(a.cores[i].instructions, b.cores[i].instructions);
        EXPECT_EQ(a.cores[i].translationCycles,
                  b.cores[i].translationCycles);
        EXPECT_EQ(a.cores[i].l1TlbHits, b.cores[i].l1TlbHits);
        EXPECT_EQ(a.cores[i].lastLevelTlbMisses,
                  b.cores[i].lastLevelTlbMisses);
        EXPECT_EQ(a.cores[i].pageWalks, b.cores[i].pageWalks);
    }
    std::remove(path.c_str());
}

TEST(Engine, EmptyPackStreamIsANamedTraceError)
{
    // Core 0 maps to a stream with no records: binding it must fail
    // with a TraceError naming the pack and the stream, not abort
    // the process during pre-population.
    const std::string path = uniqueTempPath("empty.pack");
    {
        TracePackWriter writer(path, {"empty", "full"});
        TraceRecord record;
        record.vaddr = 0x1000;
        writer.append(1, record);
        writer.close();
    }
    EngineConfig config = quickEngine();
    config.tracePackPath = path;
    Machine machine(twoCores(), "POM-TLB");
    try {
        SimulationEngine engine(machine, ProfileRegistry::byName("mcf"),
                                config);
        FAIL() << "expected TraceError";
    } catch (const TraceError &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find(path), std::string::npos) << what;
        EXPECT_NE(what.find("'empty'"), std::string::npos) << what;
    }
    std::remove(path.c_str());
}

TEST(Engine, PageSizeConflictIsANamedTraceError)
{
    // Stream 'mixed' marks one 2 MB region both 4 KB and 2 MB. In
    // either record order, at the region base (where the two pages
    // share a base address) or inside it, and with or without
    // pre-population, the run must throw a TraceError naming the
    // pack, the stream and the conflicting address, not abort or
    // serve one page size from the other.
    const Addr region = 0x40000000;
    for (const bool large_first : {false, true}) {
        for (const Addr small_offset : {Addr{0}, Addr{0x5000}}) {
            for (const bool prepopulate : {true, false}) {
                SCOPED_TRACE(testing::Message()
                             << "large_first=" << large_first
                             << " small_offset=" << small_offset
                             << " prepopulate=" << prepopulate);
                TraceRecord small;
                small.vaddr = region + small_offset;
                TraceRecord large;
                large.vaddr = region + 0x1000;
                large.pageSize = PageSize::Large2M;
                const TraceRecord &second = large_first ? small : large;
                const std::string path = uniqueTempPath("mixed.pack");
                {
                    TracePackWriter writer(path, {"mixed", "clean"});
                    writer.append(0, large_first ? large : small);
                    writer.append(0, second);
                    writer.append(1, small);
                    writer.close();
                }
                EngineConfig config = quickEngine();
                config.tracePackPath = path;
                config.prepopulate = prepopulate;
                Machine machine(twoCores(), "POM-TLB");
                SimulationEngine engine(
                    machine, ProfileRegistry::byName("mcf"), config);
                try {
                    engine.run();
                    ADD_FAILURE() << "expected TraceError";
                } catch (const TraceError &error) {
                    const std::string what = error.what();
                    EXPECT_NE(what.find(path), std::string::npos)
                        << what;
                    EXPECT_NE(what.find("mixed"), std::string::npos)
                        << what;
                    std::ostringstream vaddr;
                    vaddr << "0x" << std::hex << second.vaddr << " ";
                    EXPECT_NE(what.find(vaddr.str()), std::string::npos)
                        << what;
                }
                std::remove(path.c_str());
            }
        }
    }
}

TEST(Engine, GeneratorSourceRewindReplays)
{
    const auto &profile = ProfileRegistry::byName("mcf");
    GeneratorSource source(profile, 0, 99);
    std::vector<Addr> first;
    for (int i = 0; i < 100; ++i)
        first.push_back(source.next().vaddr);
    source.rewind();
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(source.next().vaddr, first[i]);
}

TEST(Engine, PomReducesPenaltyVersusBaseline)
{
    // The headline property: on a TLB-stressing workload the POM-TLB
    // machine spends fewer post-L1 translation cycles than the
    // baseline walker machine, on identical traces.
    const auto &profile = ProfileRegistry::byName("gups");
    EngineConfig config = quickEngine();
    config.refsPerCore = 8000;
    config.warmupRefsPerCore = 4000;

    Machine base(twoCores(), "Baseline");
    const RunResult base_result =
        SimulationEngine(base, profile, config).run();
    Machine pom(twoCores(), "POM-TLB");
    const RunResult pom_result =
        SimulationEngine(pom, profile, config).run();

    EXPECT_LT(pom_result.totals().translationCycles,
              base_result.totals().translationCycles);
}

} // namespace
} // namespace pomtlb
