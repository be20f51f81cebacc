#include "sim/experiment.hh"

#include <cstdlib>

#include "common/log.hh"
#include "sim/machine.hh"
#include "sim/perf_model.hh"
#include "sim/sweep.hh"

namespace pomtlb
{

SchemeRunSummary
runScheme(const BenchmarkProfile &profile, const std::string &scheme,
          const ExperimentConfig &config)
{
    return runExperiment(
               ExperimentRequest::of(profile.name, scheme, config))
        .summary;
}

namespace
{

/** Translation-cost ratio of a scheme run vs. the baseline run. */
double
costRatio(const SchemeRunSummary &scheme,
          const SchemeRunSummary &baseline)
{
    if (baseline.translationCycles == 0)
        return 1.0;
    return static_cast<double>(scheme.translationCycles) /
           static_cast<double>(baseline.translationCycles);
}

} // namespace

const SchemeRunSummary &
BenchmarkComparison::summary(const std::string &scheme) const
{
    for (const auto &entry : runs)
        if (entry.first == scheme)
            return entry.second;
    fatal("comparison for '", benchmark, "' has no ", scheme,
          " run");
}

const SchemeDelta &
BenchmarkComparison::delta(const std::string &scheme) const
{
    const auto it = deltas.find(scheme);
    if (it == deltas.end()) {
        fatal("comparison for '", benchmark, "' has no ", scheme,
              " delta");
    }
    return it->second;
}

BenchmarkComparison
compareSchemes(const BenchmarkProfile &profile,
               const ExperimentConfig &config)
{
    const std::vector<ExperimentResult> results =
        SweepRunner(config.sweepJobs)
            .run(SweepSpec()
                     .withBase(config)
                     .withBenchmarks({profile.name})
                     .withAllSchemes());

    BenchmarkComparison comparison;
    comparison.benchmark = profile.name;
    for (const ExperimentResult &result : results)
        comparison.runs.emplace_back(result.request.scheme,
                                     result.summary);

    const SchemeRunSummary &baseline = comparison.baseline();
    const ExecMode mode = config.system.mode;
    for (const auto &[scheme, summary] : comparison.runs) {
        SchemeDelta delta;
        delta.costRatio = costRatio(summary, baseline);
        delta.improvementPct = PerfModel::improvementPct(
            profile, mode, delta.costRatio);
        comparison.deltas.emplace(scheme, delta);
    }
    return comparison;
}

double
pomImprovementOnly(const BenchmarkProfile &profile,
                   const ExperimentConfig &config)
{
    return pomImprovementOnly(profile, config, config.system);
}

double
pomImprovementOnly(const BenchmarkProfile &profile,
                   const ExperimentConfig &config,
                   const SystemConfig &pom_system)
{
    ExperimentConfig pom_config = config;
    pom_config.system = pom_system;

    const std::vector<ExperimentResult> results =
        SweepRunner(config.sweepJobs)
            .run({ExperimentRequest::of(profile.name, "Baseline",
                                        config),
                  ExperimentRequest::of(profile.name, "POM-TLB",
                                        pom_config)});

    return PerfModel::improvementPct(
        profile, config.system.mode,
        costRatio(results[1].summary, results[0].summary));
}

ExperimentConfig
defaultExperimentConfig()
{
    ExperimentConfig config;
    // POMTLB_QUICK trims run lengths for smoke testing; the default
    // lengths are what the benches use to regenerate the figures.
    if (std::getenv("POMTLB_QUICK") != nullptr) {
        config.engine.refsPerCore = 20000;
        config.engine.warmupRefsPerCore = 5000;
    }
    // POMTLB_SWEEP_JOBS presets the fan-out of the multi-run
    // helpers (CI throttles with =1; workstations raise it).
    if (const char *jobs = std::getenv("POMTLB_SWEEP_JOBS")) {
        const long value = std::strtol(jobs, nullptr, 10);
        if (value > 0)
            config.sweepJobs = static_cast<unsigned>(value);
    }
    return config;
}

} // namespace pomtlb
