/**
 * @file
 * End-to-end smoke tests of the exact flows the examples and CLI
 * drive, kept fast enough for CI: each test mirrors one user-facing
 * entry point so a regression there fails here first.
 */

#include <gtest/gtest.h>

#include "sim/engine.hh"
#include "sim/experiment.hh"
#include "sim/perf_model.hh"
#include "trace/source.hh"

namespace pomtlb
{
namespace
{

ExperimentConfig
smokeConfig()
{
    ExperimentConfig config;
    config.system.numCores = 2;
    config.engine.refsPerCore = 5000;
    config.engine.warmupRefsPerCore = 5000;
    return config;
}

TEST(PipelineSmoke, QuickstartFlow)
{
    // examples/quickstart.cpp in miniature.
    const ExperimentConfig config = smokeConfig();
    const BenchmarkProfile &profile = ProfileRegistry::byName("mcf");
    const SchemeRunSummary baseline =
        runScheme(profile, "Baseline", config);
    const SchemeRunSummary pom =
        runScheme(profile, "POM-TLB", config);
    const double ratio =
        static_cast<double>(pom.translationCycles) /
        static_cast<double>(baseline.translationCycles);
    const double improvement = PerfModel::improvementPct(
        profile, config.system.mode, ratio);
    EXPECT_GT(improvement, 0.0);
    EXPECT_LT(improvement, profile.overheadVirtualPct * 1.5);
}

TEST(PipelineSmoke, CapacityExplorerFlow)
{
    // examples/capacity_explorer.cpp in miniature: two capacities,
    // neither may break and the bigger may not walk more.
    ExperimentConfig config = smokeConfig();
    const BenchmarkProfile &profile =
        ProfileRegistry::byName("gups");
    config.system.pomTlb.capacityBytes = 2 << 20;
    const SchemeRunSummary small =
        runScheme(profile, "POM-TLB", config);
    config.system.pomTlb.capacityBytes = 32 << 20;
    const SchemeRunSummary big =
        runScheme(profile, "POM-TLB", config);
    EXPECT_LE(big.walkFraction, small.walkFraction + 1e-9);
}

TEST(PipelineSmoke, MixedTenantsFlow)
{
    // examples/mixed_tenants.cpp in miniature: heterogeneous
    // per-core sources in different VMs on one machine.
    ExperimentConfig config = smokeConfig();
    config.engine.coreVm = {1, 2};
    Machine machine(config.system, "POM-TLB");
    std::vector<std::unique_ptr<TraceSource>> sources;
    sources.push_back(std::make_unique<GeneratorSource>(
        ProfileRegistry::byName("mcf"), 0, 42));
    sources.push_back(std::make_unique<GeneratorSource>(
        ProfileRegistry::byName("gups"), 1, 42));
    SimulationEngine engine(machine,
                            ProfileRegistry::byName("mcf"),
                            config.engine, std::move(sources));
    const RunResult result = engine.run();
    EXPECT_EQ(result.cores.size(), 2u);
    EXPECT_LT(result.totals().walkFraction, 0.05);
    EXPECT_EQ(machine.memoryMap().vmCount(), 2u);
}

TEST(PipelineSmoke, CompareFlowOrdering)
{
    // tools `compare` in miniature: four schemes, baseline cost
    // ratio exactly 1.
    const BenchmarkComparison comparison = compareSchemes(
        ProfileRegistry::byName("canneal"), smokeConfig());
    EXPECT_DOUBLE_EQ(
        comparison.delta("Baseline").costRatio, 1.0);
    const SchemeDelta &pom = comparison.delta("POM-TLB");
    EXPECT_GT(pom.costRatio, 0.0);
    EXPECT_LT(pom.costRatio, 1.5);
    EXPECT_GT(comparison.delta("Shared_L2").costRatio, 0.0);
    EXPECT_GT(comparison.delta("TSB").costRatio, 0.0);
}

} // namespace
} // namespace pomtlb
