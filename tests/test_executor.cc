/**
 * @file
 * The memoized-job pipeline (runMemoizedJobs, sim/sweep_cache.hh)
 * with several workers, through the pipeline itself and through its
 * two adapters, SweepService and runScenarioCampaign. These tests
 * build into pomtlb_sweep_tests so CI runs them under
 * ThreadSanitizer; the fork-based crash/resume tests stay in
 * test_sweep_cache.cc and test_scenario.cc.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/scenario.hh"
#include "sim/sweep_cache.hh"
#include "temp_path.hh"

namespace pomtlb
{
namespace
{

namespace fs = std::filesystem;

/** A fresh directory for one test, removed afterwards. */
struct TempDir
{
    TempDir() : path(uniqueTempPath("dir"))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }

    std::string sub(const std::string &name) const
    {
        return (fs::path(path) / name).string();
    }

    std::string path;
};

/** 24 jobs over 8 distinct hashes: job i has hash "h<i % 8>". */
struct FakeCampaign
{
    FakeCampaign()
    {
        for (std::size_t i = 0; i < 24; ++i) {
            hashes.push_back("h" + std::to_string(i % 8));
            keys.push_back("job/" + std::to_string(i));
        }
    }

    JsonValue
    run(const SweepServiceOptions &options, SweepServiceStats &stats,
        std::vector<std::size_t> *order = nullptr)
    {
        return runMemoizedJobs(
            "fake-v1", hashes, keys, options,
            [this](std::size_t index) {
                ++executions;
                JsonValue entry = JsonValue::object();
                entry.set("hash", hashes[index]);
                return entry;
            },
            [order](const SweepJobReport &report, const JsonValue &) {
                if (order)
                    order->push_back(report.index);
            },
            stats);
    }

    std::vector<std::string> hashes;
    std::vector<std::string> keys;
    std::atomic<unsigned> executions{0};
};

TEST(MemoizedJobs, ParallelRunMatchesSerialAndEmitsInOrder)
{
    TempDir dir;
    SweepServiceOptions serial;
    SweepServiceOptions wide;
    wide.jobs = 4;
    wide.cacheDir = dir.sub("cache");
    wide.journalPath = dir.sub("journal.jsonl");

    FakeCampaign reference;
    SweepServiceStats stats;
    const JsonValue expected = reference.run(serial, stats);
    EXPECT_EQ(expected.at("schema").asString(), "fake-v1");
    EXPECT_EQ(reference.executions.load(), 8u);

    FakeCampaign parallel;
    std::vector<std::size_t> order;
    EXPECT_EQ(parallel.run(wide, stats, &order).dump(2),
              expected.dump(2));
    EXPECT_EQ(parallel.executions.load(), 8u);
    EXPECT_EQ(stats.jobs, 24u);
    EXPECT_EQ(stats.executed, 8u);
    EXPECT_EQ(stats.deduplicated, 16u);
    ASSERT_EQ(order.size(), 24u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);

    // A rerun replays every hash from the journal; a rerun without
    // the journal is served from the cache. Neither executes.
    FakeCampaign resumed;
    EXPECT_EQ(resumed.run(wide, stats).dump(2), expected.dump(2));
    EXPECT_EQ(stats.journalHits, 8u);
    SweepServiceOptions cached = wide;
    cached.journalPath.clear();
    EXPECT_EQ(resumed.run(cached, stats).dump(2), expected.dump(2));
    EXPECT_EQ(stats.cacheHits, 8u);
    EXPECT_EQ(resumed.executions.load(), 0u);
}

TEST(MemoizedJobs, ParallelFailureRethrowsTheLowestIndex)
{
    const std::vector<std::string> hashes = {"a", "b", "c", "d", "e"};
    const std::vector<std::string> keys = {"a", "b", "c", "d", "e"};
    SweepServiceOptions options;
    options.jobs = 4;
    SweepServiceStats stats;
    try {
        runMemoizedJobs(
            "fake-v1", hashes, keys, options,
            [](std::size_t index) -> JsonValue {
                if (index == 1 || index == 3)
                    throw std::runtime_error("job " +
                                             std::to_string(index));
                return JsonValue::object();
            },
            {}, stats);
        FAIL() << "expected the job failure to propagate";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "job 1");
    }
    EXPECT_EQ(stats.executed, 3u);
}

ExperimentConfig
tinyConfig()
{
    ExperimentConfig config;
    config.system.numCores = 2;
    config.engine.refsPerCore = 400;
    config.engine.warmupRefsPerCore = 200;
    return config;
}

TEST(SweepService, ParallelCampaignIsByteIdenticalToSerial)
{
    TempDir dir;
    std::vector<ExperimentRequest> requests;
    for (const char *scheme : {"pom", "baseline", "tsb"})
        requests.push_back(
            ExperimentRequest::of("mcf", scheme, tinyConfig()));
    requests.push_back(requests.front()); // a duplicate

    SweepServiceOptions serial;
    const JsonValue expected = SweepService(serial).run(requests);

    SweepServiceOptions wide;
    wide.jobs = 4;
    wide.cacheDir = dir.sub("cache");
    SweepService cold(wide);
    EXPECT_EQ(cold.run(requests).dump(2), expected.dump(2));
    EXPECT_EQ(cold.stats().executed, 3u);
    EXPECT_EQ(cold.stats().deduplicated, 1u);

    SweepService warm(wide);
    EXPECT_EQ(warm.run(requests).dump(2), expected.dump(2));
    EXPECT_EQ(warm.stats().executed, 0u);
    EXPECT_EQ(warm.stats().cacheHits, 3u);
}

ScenarioSpec
tinyScenario(unsigned tenants)
{
    ScenarioSpec spec;
    spec.name = "tiny-" + std::to_string(tenants) + "t";
    spec.system.numCores = 2;
    spec.engine.refsPerCore = 600;
    spec.engine.warmupRefsPerCore = 300;
    spec.tenantCount = tenants;
    spec.tenantBenchmarks = {"mcf", "gups"};
    spec.migrationPagesPerArrival = 2;
    spec.storm.intervalRefs = 200;
    return spec;
}

TEST(ScenarioCampaign, ParallelCampaignIsByteIdenticalToSerial)
{
    TempDir dir;
    const std::vector<ScenarioSpec> specs = {
        tinyScenario(2), tinyScenario(4), tinyScenario(6),
        tinyScenario(4)};

    SweepServiceStats stats;
    const JsonValue expected =
        runScenarioCampaign(specs, SweepServiceOptions{}, &stats);

    SweepServiceOptions wide;
    wide.jobs = 4;
    wide.cacheDir = dir.sub("cache");
    wide.journalPath = dir.sub("journal.jsonl");
    std::vector<std::string> names;
    const JsonValue parallel = runScenarioCampaign(
        specs, wide, &stats,
        [&](const SweepJobReport &report, const JsonValue &) {
            names.push_back(report.key);
        });
    EXPECT_EQ(parallel.dump(2), expected.dump(2));
    EXPECT_EQ(stats.executed, 3u);
    EXPECT_EQ(stats.deduplicated, 1u);
    ASSERT_EQ(names.size(), 4u);
    EXPECT_EQ(names[1], "tiny-4t/POM-TLB");

    SweepServiceOptions cached = wide;
    cached.journalPath.clear();
    EXPECT_EQ(runScenarioCampaign(specs, cached, &stats).dump(2),
              expected.dump(2));
    EXPECT_EQ(stats.executed, 0u);
    EXPECT_EQ(stats.cacheHits, 3u);
}

} // namespace
} // namespace pomtlb
