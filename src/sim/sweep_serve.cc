#include "sim/sweep_serve.hh"

#include <filesystem>
#include <istream>
#include <map>
#include <ostream>
#include <set>
#include <vector>

#include "sim/experiment.hh"
#include "sim/scenario.hh"
#include "sim/scheme_registry.hh"
#include "trace/profile.hh"

namespace pomtlb
{

namespace
{

/** Protocol violation: reported as an `error` event, loop continues. */
struct ServeError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

std::string
stringField(const JsonValue &request, const std::string &field)
{
    if (!request.has(field) || !request.at(field).isString())
        throw ServeError("request needs string field '" + field +
                         "'");
    return request.at(field).asString();
}

/**
 * @p value (request field @p field) as an unsigned integer; a
 * wrong kind or a number outside [0, 2^64) is a ServeError that
 * names the field.
 */
std::uint64_t
uintValue(const JsonValue &value, const std::string &field)
{
    try {
        return value.asUint();
    } catch (const std::logic_error &error) {
        throw ServeError("field '" + field + "': " + error.what());
    }
}

/**
 * The keys a request with op @p op may carry, or nullptr for an
 * unknown op (docs/sweep-service.md §4 lists them).
 */
const std::set<std::string> *
requestKeys(const std::string &op)
{
    static const std::map<std::string, std::set<std::string>> keys =
        [] {
            const std::set<std::string> config{
                "op", "cores", "refs_per_core", "warmup_refs_per_core",
                "seed", "pom_capacity_mb", "mode", "jobs"};
            const auto with = [&](std::set<std::string> extra) {
                extra.insert(config.begin(), config.end());
                return extra;
            };
            return std::map<std::string, std::set<std::string>>{
                {"ping", {"op"}},
                {"list", {"op"}},
                {"stats", {"op"}},
                {"shutdown", {"op"}},
                {"sweep",
                 with({"benchmarks", "schemes", "component_stats"})},
                {"run", with({"benchmark", "scheme", "component_stats"})},
                {"scenario",
                 with({"tenants", "scheme", "tenant_benchmarks", "name",
                       "churn_interval_refs", "resident_per_core",
                       "overcommit_factor",
                       "migration_pages_per_arrival",
                       "storm_interval_refs", "storm_pages_per_burst",
                       "time_slice_refs"})},
            };
        }();
    const auto it = keys.find(op);
    return it == keys.end() ? nullptr : &it->second;
}

/**
 * An axis field: a JSON array of names, the string "all", or absent
 * (= all). Returns the resolved name list.
 */
std::vector<std::string>
axisField(const JsonValue &request, const std::string &field,
          const std::vector<std::string> &all_names)
{
    if (!request.has(field))
        return all_names;
    const JsonValue &value = request.at(field);
    if (value.isString()) {
        if (value.asString() == "all")
            return all_names;
        return {value.asString()};
    }
    if (!value.isArray())
        throw ServeError("field '" + field +
                         "' must be an array of names or \"all\"");
    std::vector<std::string> names;
    for (const JsonValue &element : value.elements()) {
        if (!element.isString())
            throw ServeError("field '" + field +
                             "' must contain only strings");
        names.push_back(element.asString());
    }
    if (names.empty())
        throw ServeError("field '" + field + "' must not be empty");
    return names;
}

/** Apply the optional config-override fields of a sweep request. */
ExperimentConfig
configFromRequest(const JsonValue &request)
{
    ExperimentConfig config = defaultExperimentConfig();
    const auto field = [&](const char *name) {
        return uintValue(request.at(name), name);
    };
    if (request.has("cores"))
        config.system.numCores = static_cast<unsigned>(field("cores"));
    if (request.has("refs_per_core"))
        config.engine.refsPerCore = field("refs_per_core");
    if (request.has("warmup_refs_per_core"))
        config.engine.warmupRefsPerCore = field("warmup_refs_per_core");
    if (request.has("seed"))
        config.engine.seed = field("seed");
    if (request.has("pom_capacity_mb")) {
        config.system.pomTlb.capacityBytes = field("pom_capacity_mb")
                                             << 20;
    }
    if (request.has("mode")) {
        const std::string &mode = request.at("mode").asString();
        if (mode == "native")
            config.system.mode = ExecMode::Native;
        else if (mode == "virtualized")
            config.system.mode = ExecMode::Virtualized;
        else
            throw ServeError("unknown mode '" + mode +
                             "' (native or virtualized)");
    }
    return config;
}

} // namespace

ServeSession::ServeSession(std::istream &in, std::ostream &out,
                           ServeOptions serve_options)
    : input(in), output(out), serveOptions(std::move(serve_options))
{
}

void
ServeSession::emitEvent(JsonValue event)
{
    JsonValue line = JsonValue::object();
    line.set("schema", kSweepServeSchemaV1);
    for (const auto &[key, value] : event.members())
        line.set(key, value);
    line.write(output, 0);
    output << "\n";
    output.flush();
}

JsonValue
ServeSession::statsJson() const
{
    JsonValue stats = JsonValue::object();
    stats.set("jobs", std::uint64_t(campaignStats.jobs));
    stats.set("executed", std::uint64_t(campaignStats.executed));
    stats.set("cache_hits",
              std::uint64_t(campaignStats.cacheHits));
    stats.set("journal_hits",
              std::uint64_t(campaignStats.journalHits));
    stats.set("deduplicated",
              std::uint64_t(campaignStats.deduplicated));
    stats.set("quarantined",
              std::uint64_t(campaignStats.quarantined));
    return stats;
}

void
ServeSession::handleSweep(const JsonValue &request)
{
    const bool single = stringField(request, "op") == "run";

    std::vector<std::string> benchmarks;
    std::vector<std::string> schemes;
    if (single) {
        benchmarks = {stringField(request, "benchmark")};
        schemes = {stringField(request, "scheme")};
    } else {
        benchmarks = axisField(request, "benchmarks",
                               ProfileRegistry::names());
        schemes = axisField(request, "schemes",
                            SchemeRegistry::global().names());
    }

    for (const std::string &name : benchmarks) {
        if (ProfileRegistry::find(name) == nullptr)
            throw ServeError("unknown benchmark '" + name + "'");
    }
    for (std::string &name : schemes) {
        const SchemeRegistry::Info *info =
            SchemeRegistry::global().find(name);
        if (info == nullptr)
            throw ServeError("unknown scheme '" + name + "'");
        name = info->name;
    }

    const ExperimentConfig config = configFromRequest(request);
    const bool component_stats =
        request.has("component_stats") &&
        request.at("component_stats").asBool();

    std::vector<ExperimentRequest> requests;
    for (const std::string &benchmark : benchmarks) {
        for (const std::string &scheme : schemes) {
            requests.push_back(
                ExperimentRequest::of(benchmark, scheme, config)
                    .withComponentStats(component_stats));
        }
    }

    SweepServiceOptions options;
    options.cacheDir = serveOptions.cacheDir;
    options.jobs = serveOptions.jobs;
    if (request.has("jobs")) {
        options.jobs = static_cast<unsigned>(
            uintValue(request.at("jobs"), "jobs"));
    }
    options.crashAfterAppends = serveOptions.crashAfterAppends;

    std::vector<std::string> hashes;
    for (const ExperimentRequest &job : requests)
        hashes.push_back(jobHash(job));
    const std::string campaign = sweepHash(hashes);
    if (!serveOptions.journalDir.empty()) {
        std::error_code error;
        std::filesystem::create_directories(serveOptions.journalDir,
                                            error);
        options.journalPath =
            (std::filesystem::path(serveOptions.journalDir) /
             (campaign + ".jsonl"))
                .string();
    }

    const std::size_t total = requests.size();
    SweepService service(options);
    service.run(requests, [&](const SweepJobReport &report,
                              const JsonValue &run) {
        JsonValue event = JsonValue::object();
        event.set("event", "job");
        event.set("index", std::uint64_t(report.index));
        event.set("jobs", std::uint64_t(total));
        event.set("key", report.key);
        event.set("job_hash", report.hash);
        event.set("source", jobSourceName(report.source));
        event.set("wall_seconds", report.wallSeconds);
        event.set("run", run);
        emitEvent(std::move(event));
    });
    campaignStats = service.stats();

    JsonValue end = JsonValue::object();
    end.set("event", "sweep-end");
    end.set("sweep_hash", campaign);
    end.set("stats", statsJson());
    emitEvent(std::move(end));
}

void
ServeSession::handleScenario(const JsonValue &request)
{
    if (!request.has("tenants"))
        throw ServeError("scenario request needs field 'tenants'");
    std::vector<std::uint64_t> counts;
    const JsonValue &tenants = request.at("tenants");
    if (tenants.isArray()) {
        for (const JsonValue &element : tenants.elements())
            counts.push_back(uintValue(element, "tenants"));
    } else {
        counts.push_back(uintValue(tenants, "tenants"));
    }
    if (counts.empty())
        throw ServeError("field 'tenants' must not be empty");

    std::string scheme = request.has("scheme")
                             ? stringField(request, "scheme")
                             : std::string("POM-TLB");
    const SchemeRegistry::Info *info =
        SchemeRegistry::global().find(scheme);
    if (info == nullptr)
        throw ServeError("unknown scheme '" + scheme + "'");
    scheme = info->name;

    std::vector<std::string> benchmarks{"mcf"};
    if (request.has("tenant_benchmarks"))
        benchmarks = axisField(request, "tenant_benchmarks",
                               ProfileRegistry::names());
    for (const std::string &name : benchmarks) {
        if (ProfileRegistry::find(name) == nullptr)
            throw ServeError("unknown benchmark '" + name + "'");
    }

    const ExperimentConfig config = configFromRequest(request);
    auto uintField = [&](const char *field,
                         std::uint64_t fallback) -> std::uint64_t {
        return request.has(field) ? uintValue(request.at(field), field)
                                  : fallback;
    };
    const std::string base_name =
        request.has("name") ? stringField(request, "name")
                            : std::string("consolidation");

    std::vector<ScenarioSpec> specs;
    for (const std::uint64_t count : counts) {
        ScenarioSpec spec;
        spec.name = base_name + "-" + std::to_string(count) + "t";
        spec.scheme = scheme;
        spec.system = config.system;
        spec.engine = config.engine;
        spec.tenantCount = static_cast<unsigned>(count);
        spec.tenantBenchmarks = benchmarks;
        spec.churnIntervalRefs =
            uintField("churn_interval_refs", 0);
        spec.residentPerCore = static_cast<unsigned>(
            uintField("resident_per_core", 4));
        if (request.has("overcommit_factor")) {
            spec.overcommitFactor =
                request.at("overcommit_factor").asNumber();
        }
        spec.migrationPagesPerArrival =
            uintField("migration_pages_per_arrival", 0);
        spec.storm.intervalRefs =
            uintField("storm_interval_refs", 0);
        spec.storm.pagesPerBurst = static_cast<unsigned>(
            uintField("storm_pages_per_burst", 8));
        spec.timeSliceRefs = uintField("time_slice_refs", 0);
        specs.push_back(std::move(spec));
    }

    SweepServiceOptions options;
    options.cacheDir = serveOptions.cacheDir;
    options.jobs = serveOptions.jobs;
    if (request.has("jobs")) {
        options.jobs = static_cast<unsigned>(
            uintValue(request.at("jobs"), "jobs"));
    }
    options.crashAfterAppends = serveOptions.crashAfterAppends;

    std::vector<std::string> hashes;
    for (const ScenarioSpec &spec : specs)
        hashes.push_back(scenarioHash(spec));
    const std::string campaign = sweepHash(hashes);
    if (!serveOptions.journalDir.empty()) {
        std::error_code error;
        std::filesystem::create_directories(serveOptions.journalDir,
                                            error);
        options.journalPath =
            (std::filesystem::path(serveOptions.journalDir) /
             (campaign + ".jsonl"))
                .string();
    }

    const std::size_t total = specs.size();
    SweepServiceStats stats;
    runScenarioCampaign(
        specs, options, &stats,
        [&](const SweepJobReport &report, const JsonValue &run) {
            JsonValue event = JsonValue::object();
            event.set("event", "scenario-job");
            event.set("index", std::uint64_t(report.index));
            event.set("jobs", std::uint64_t(total));
            event.set("name", specs[report.index].name);
            event.set("scenario_hash", report.hash);
            event.set("source", jobSourceName(report.source));
            event.set("wall_seconds", report.wallSeconds);
            event.set("run", run);
            emitEvent(std::move(event));
        });
    campaignStats = stats;

    JsonValue end = JsonValue::object();
    end.set("event", "scenario-end");
    end.set("campaign_hash", campaign);
    end.set("stats", statsJson());
    emitEvent(std::move(end));
}

void
ServeSession::handleRequest(const JsonValue &request)
{
    if (!request.isObject())
        throw ServeError("request must be a JSON object");
    const std::string op = stringField(request, "op");
    if (const std::set<std::string> *allowed = requestKeys(op)) {
        for (const auto &[key, value] : request.members()) {
            if (allowed->count(key) == 0) {
                throw ServeError("unknown key '" + key +
                                 "' for op '" + op + "'");
            }
        }
    }

    if (op == "ping") {
        JsonValue event = JsonValue::object();
        event.set("event", "pong");
        emitEvent(std::move(event));
    } else if (op == "list") {
        JsonValue event = JsonValue::object();
        event.set("event", "catalog");
        JsonValue benchmarks = JsonValue::array();
        for (const std::string &name : ProfileRegistry::names())
            benchmarks.push(name);
        event.set("benchmarks", std::move(benchmarks));
        JsonValue schemes = JsonValue::array();
        for (const std::string &name :
             SchemeRegistry::global().names())
            schemes.push(name);
        event.set("schemes", std::move(schemes));
        emitEvent(std::move(event));
    } else if (op == "sweep" || op == "run") {
        handleSweep(request);
    } else if (op == "scenario") {
        handleScenario(request);
    } else if (op == "stats") {
        JsonValue event = JsonValue::object();
        event.set("event", "stats");
        event.set("stats", statsJson());
        emitEvent(std::move(event));
    } else if (op == "shutdown") {
        JsonValue event = JsonValue::object();
        event.set("event", "bye");
        emitEvent(std::move(event));
        shuttingDown = true;
    } else {
        throw ServeError("unknown op '" + op + "'");
    }
}

std::size_t
ServeSession::runToCompletion()
{
    JsonValue ready = JsonValue::object();
    ready.set("event", "ready");
    ready.set("jobs", std::uint64_t(serveOptions.jobs));
    ready.set("cache_dir", serveOptions.cacheDir);
    emitEvent(std::move(ready));

    std::size_t handled = 0;
    std::string line;
    while (!shuttingDown && std::getline(input, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        ++handled;
        try {
            handleRequest(JsonValue::parse(line));
        } catch (const std::exception &error) {
            JsonValue event = JsonValue::object();
            event.set("event", "error");
            event.set("message", std::string(error.what()));
            emitEvent(std::move(event));
        }
    }
    return handled;
}

} // namespace pomtlb
