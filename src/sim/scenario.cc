#include "sim/scenario.hh"

#include <algorithm>
#include <map>
#include <utility>

#include "common/content_hash.hh"
#include "common/log.hh"
#include "sim/machine.hh"
#include "sim/scheme_registry.hh"
#include "sim/stats_export.hh"
#include "trace/profile.hh"
#include "trace/tracepack.hh"

namespace pomtlb
{

// ---------------------------------------------------------------
// Spec resolution
// ---------------------------------------------------------------

namespace
{

/** Canonical registry name of @p scheme (raw name when unknown). */
std::string
canonicalScheme(const std::string &scheme)
{
    const SchemeRegistry::Info *info =
        SchemeRegistry::global().find(scheme);
    return info ? info->name : scheme;
}

} // namespace

std::vector<ResolvedTenant>
ScenarioSpec::resolvedTenants() const
{
    const std::uint64_t total =
        engine.warmupRefsPerCore + engine.refsPerCore;
    const unsigned cores = system.numCores;
    simAssert(total > 0, "scenario run length is zero");

    std::vector<TenantSpec> expanded;
    if (tenantCount > 0) {
        // Generator mode: expand the churn model into an explicit
        // tenant list, so it resolves (and hashes) exactly like one.
        const std::vector<std::string> cycle =
            tenantBenchmarks.empty()
                ? std::vector<std::string>{"mcf"}
                : tenantBenchmarks;
        const unsigned n = tenantCount;
        unsigned vcpus = 1;
        if (n < cores) {
            simAssert(cores % n == 0,
                      "tenant count must divide the core count when "
                      "tenants span multiple cores");
            vcpus = cores / n;
        }
        expanded.reserve(n);
        for (unsigned t = 0; t < n; ++t) {
            TenantSpec tenant;
            tenant.name = "t" + std::to_string(t);
            tenant.benchmark = cycle[t % cycle.size()];
            tenant.vcpus = vcpus;
            expanded.push_back(std::move(tenant));
        }
        if (vcpus == 1 && n > cores) {
            // Churn: tenant t homes on core t % cores (the stream
            // placement rule), so schedule each core's queue
            // independently — the first `resident` tenants start
            // resident, and every `interval` references the oldest
            // departs as the next one arrives.
            const unsigned resident =
                residentPerCore ? residentPerCore : 1;
            for (unsigned core = 0; core < cores; ++core) {
                std::vector<unsigned> homed;
                for (unsigned t = core; t < n; t += cores)
                    homed.push_back(t);
                const std::size_t k = homed.size();
                const std::size_t r =
                    std::min<std::size_t>(resident, k);
                if (k <= r)
                    continue; // everyone fits: no churn on this core
                const std::uint64_t slots = k - r + 1;
                const std::uint64_t interval =
                    churnIntervalRefs ? churnIntervalRefs
                                      : total / slots;
                simAssert(interval > 0,
                          "churn interval resolves to zero "
                          "(run too short for this tenant count)");
                for (std::size_t j = 0; j < k; ++j) {
                    TenantSpec &tenant = expanded[homed[j]];
                    tenant.arrivalRefs =
                        j < r ? 0 : (j - r + 1) * interval;
                    tenant.departureRefs =
                        (j + r < k) ? (j + 1) * interval : 0;
                    simAssert(tenant.arrivalRefs < total,
                              "churn interval too large: a tenant "
                              "arrives after the run ends");
                }
            }
        }
    } else {
        expanded = tenants;
    }
    simAssert(!expanded.empty(), "scenario has no tenants");

    std::vector<ResolvedTenant> resolved;
    resolved.reserve(expanded.size());
    ProcessId next_pid = engine.pidBase;
    for (std::size_t i = 0; i < expanded.size(); ++i) {
        const TenantSpec &t = expanded[i];
        const BenchmarkProfile &profile =
            ProfileRegistry::byName(t.benchmark);
        ResolvedTenant out;
        out.name =
            t.name.empty() ? "t" + std::to_string(i) : t.name;
        out.benchmark = profile.name;
        out.vcpus = std::max(1u, t.vcpus);
        out.vm = t.vm != 0 ? t.vm : static_cast<VmId>(1 + i);
        out.multithreaded = profile.multithreaded;
        if (t.pid != 0) {
            out.pidBase = t.pid;
        } else {
            out.pidBase = next_pid;
            next_pid = static_cast<ProcessId>(
                next_pid +
                (profile.multithreaded ? 1 : out.vcpus));
        }
        simAssert(t.arrivalRefs < total,
                  "tenant arrives at or after the run end");
        out.arrivalRefs = t.arrivalRefs;
        out.departureRefs =
            (t.departureRefs == 0 || t.departureRefs > total)
                ? total
                : t.departureRefs;
        simAssert(out.departureRefs > out.arrivalRefs,
                  "tenant departs before it arrives");
        const Addr nominal = t.footprintBytes
                                 ? t.footprintBytes
                                 : profile.footprintBytes;
        out.footprintBytes = nominal;
        if (overcommitFactor != 1.0) {
            simAssert(overcommitFactor > 0.0,
                      "overcommit factor must be positive");
            out.footprintBytes = std::max<Addr>(
                Addr{1} << 12,
                static_cast<Addr>(static_cast<double>(nominal) /
                                  overcommitFactor));
        }
        out.tracePack = t.tracePack;
        out.traceStreamBase = t.traceStream;
        resolved.push_back(std::move(out));
    }

    // The scenario-wide pack (pomtlb scenario --trace-in) backs
    // every tenant that has no pack of its own, one stream per vCPU
    // in resolved order — the layout recordPack() writes.
    if (!tracePack.empty()) {
        std::uint32_t stream_base = 0;
        for (ResolvedTenant &t : resolved) {
            if (t.tracePack.empty()) {
                t.tracePack = tracePack;
                t.traceStreamBase = stream_base;
            }
            stream_base += t.vcpus;
        }
    }
    return resolved;
}

// ---------------------------------------------------------------
// ScenarioEngine: compilation
// ---------------------------------------------------------------

namespace
{

/**
 * One stream per tenant vCPU, homed on core `stream_id % cores`;
 * tenants sharing a trace pack share one mmap-ed reader.
 */
void
addStreams(const Machine &machine, const ScenarioSpec &spec,
           CompiledRun &run)
{
    const unsigned cores = machine.numCores();
    const std::uint64_t seed = spec.engine.seed ^ machine.config().seed;
    std::map<std::string, std::shared_ptr<TracePackReader>> packs;
    std::uint32_t stream_id = 0;
    for (unsigned t = 0; t < run.tenants.size(); ++t) {
        const ResolvedTenant &tenant = run.tenants[t];
        // The stream generates against the tenant's *effective*
        // footprint, so overcommit shrinks the touched page pool —
        // the resident working set — rather than slowing the clock.
        BenchmarkProfile profile =
            ProfileRegistry::byName(tenant.benchmark);
        profile.footprintBytes = tenant.footprintBytes;
        std::shared_ptr<TracePackReader> pack;
        if (!tenant.tracePack.empty()) {
            auto &slot = packs[tenant.tracePack];
            if (!slot)
                slot = std::make_shared<TracePackReader>(
                    tenant.tracePack);
            pack = slot;
        }
        for (unsigned v = 0; v < tenant.vcpus; ++v, ++stream_id) {
            TenantStream stream;
            if (pack)
                stream.source = std::make_unique<PackStreamSource>(
                    pack, tenant.traceStreamBase + v);
            else
                stream.source = std::make_unique<GeneratorSource>(
                    profile, CoreId(stream_id), seed);
            stream.tenant = t;
            stream.homeCore = stream_id % cores;
            stream.vm = tenant.vm;
            stream.pid =
                tenant.multithreaded
                    ? tenant.pidBase
                    : static_cast<ProcessId>(tenant.pidBase + v);
            run.streams.add(std::move(stream));
        }
    }
}

/**
 * Split each core's timeline at every arrival/departure into
 * segments, round-robin time-slice each segment among its resident
 * streams, mark each stream's first and last slice, and charge every
 * stream its scheduled reference count.
 */
void
buildSchedule(const Machine &machine, const ScenarioSpec &spec,
              CompiledRun &run)
{
    const unsigned cores = machine.numCores();
    const std::uint64_t quantum =
        spec.timeSliceRefs ? spec.timeSliceRefs : 2000;
    const std::uint64_t total_per_core =
        spec.engine.warmupRefsPerCore + spec.engine.refsPerCore;
    TenantStreamSet &streams = run.streams;
    const std::vector<ResolvedTenant> &tenants = run.tenants;

    std::vector<std::vector<std::uint32_t>> homed(cores);
    for (std::uint32_t s = 0; s < streams.size(); ++s)
        homed[streams.at(s).homeCore].push_back(s);

    run.schedule.assign(cores, {});
    for (unsigned core = 0; core < cores; ++core) {
        simAssert(!homed[core].empty(),
                  "scenario leaves a core with no tenant streams");

        // Segment the core's timeline at every arrival/departure.
        std::vector<std::uint64_t> bounds{0, total_per_core};
        for (const std::uint32_t s : homed[core]) {
            const ResolvedTenant &t =
                tenants[streams.at(s).tenant];
            if (t.arrivalRefs > 0 && t.arrivalRefs < total_per_core)
                bounds.push_back(t.arrivalRefs);
            if (t.departureRefs < total_per_core)
                bounds.push_back(t.departureRefs);
        }
        std::sort(bounds.begin(), bounds.end());
        bounds.erase(std::unique(bounds.begin(), bounds.end()),
                     bounds.end());

        std::vector<Slice> plan;
        const auto append = [&plan](std::uint32_t stream,
                                    std::uint64_t length) {
            if (!plan.empty() && plan.back().stream == stream) {
                plan.back().length += length;
                return;
            }
            Slice slice;
            slice.stream = stream;
            slice.length = length;
            plan.push_back(slice);
        };

        // Round-robin within each segment; the rotation cursor
        // carries across segments so no stream is systematically
        // favoured at segment boundaries.
        std::size_t rotation = 0;
        for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
            const std::uint64_t begin = bounds[b];
            const std::uint64_t end = bounds[b + 1];
            std::vector<std::uint32_t> active;
            for (const std::uint32_t s : homed[core]) {
                const ResolvedTenant &t =
                    tenants[streams.at(s).tenant];
                if (t.arrivalRefs <= begin &&
                    t.departureRefs >= end) {
                    active.push_back(s);
                }
            }
            simAssert(!active.empty(),
                      "scenario schedule leaves a core idle (no "
                      "resident tenant in a segment)");
            if (active.size() == 1) {
                append(active[0], end - begin);
                continue;
            }
            // Cap the quantum to an equal share of the segment so
            // every resident stream runs even in segments shorter
            // than one full rotation.
            const std::uint64_t fair = std::max<std::uint64_t>(
                1, (end - begin) / active.size());
            const std::uint64_t take_max = std::min(quantum, fair);
            std::uint64_t remaining = end - begin;
            std::size_t idx = rotation % active.size();
            while (remaining > 0) {
                const std::uint64_t take =
                    std::min(take_max, remaining);
                append(active[idx], take);
                remaining -= take;
                idx = (idx + 1) % active.size();
            }
            rotation = idx;
        }

        // Mark lifecycle boundaries and charge each stream's total.
        std::vector<char> seen(streams.size(), 0);
        for (Slice &slice : plan) {
            if (!seen[slice.stream]) {
                seen[slice.stream] = 1;
                slice.firstOfStream = true;
            }
            streams.at(slice.stream).totalRefs += slice.length;
        }
        std::fill(seen.begin(), seen.end(), 0);
        for (auto it = plan.rbegin(); it != plan.rend(); ++it) {
            if (!seen[it->stream]) {
                seen[it->stream] = 1;
                it->lastOfStream = true;
            }
        }
        run.schedule[core] = std::move(plan);
    }
}

/** @p spec in the core loop's representation (sim/core_loop.hh). */
CompiledRun
compileScenario(const Machine &machine, const ScenarioSpec &spec)
{
    simAssert(machine.numCores() == spec.system.numCores,
              "machine geometry does not match the scenario's "
              "system config");
    CompiledRun run;
    run.tenants = spec.resolvedTenants();
    run.storm = spec.storm;
    run.migrationPagesPerArrival = spec.migrationPagesPerArrival;
    addStreams(machine, spec, run);
    buildSchedule(machine, spec, run);
    return run;
}

} // namespace

ScenarioEngine::ScenarioEngine(Machine &machine, const ScenarioSpec &spec)
    : loop(machine, spec.engine, compileScenario(machine, spec))
{
    for (std::size_t i = 0; i < loop.tenants().size(); ++i) {
        const TenantResult &rt = loop.tenant(i);
        StatGroup &group = tenantGroups.emplace_back(rt.name);
        group.addDerived("refs", [&rt] {
            return static_cast<double>(rt.refs);
        });
        group.addDerived("l1_tlb_hits", [&rt] {
            return static_cast<double>(rt.l1TlbHits);
        });
        group.addDerived("l2_tlb_hits", [&rt] {
            return static_cast<double>(rt.l2TlbHits);
        });
        group.addDerived("last_level_tlb_misses", [&rt] {
            return static_cast<double>(rt.lastLevelTlbMisses);
        });
        group.addDerived("translation_cycles", [&rt] {
            return static_cast<double>(rt.translationCycles);
        });
        group.addDerived("page_walks", [&rt] {
            return static_cast<double>(rt.pageWalks);
        });
        group.addDerived("shootdowns", [&rt] {
            return static_cast<double>(rt.shootdowns);
        });
        group.addDerived("migrations", [&rt] {
            return static_cast<double>(rt.migrations);
        });
        group.addDerived("l1_hit_ratio", [&rt] {
            return rt.refs ? static_cast<double>(rt.l1TlbHits) /
                                 static_cast<double>(rt.refs)
                           : 0.0;
        });
        group.addDerived("l2_hit_ratio", [&rt] {
            return rt.refs ? static_cast<double>(rt.l2TlbHits) /
                                 static_cast<double>(rt.refs)
                           : 0.0;
        });
        group.addDerived("p50_translation_cycles", [&rt] {
            return static_cast<double>(
                rt.translationLatency.percentileUpperBound(50.0));
        });
        group.addDerived("p95_translation_cycles", [&rt] {
            return static_cast<double>(
                rt.translationLatency.percentileUpperBound(95.0));
        });
        group.addDerived("p99_translation_cycles", [&rt] {
            return static_cast<double>(
                rt.translationLatency.percentileUpperBound(99.0));
        });
        group.addHistogram("translation_cycle_histogram",
                           rt.translationLatency);
        tenantsGroup.addChild(group);
    }
    scenarioRegistry.add(tenantsGroup);
}

ScenarioEngine::~ScenarioEngine() = default;

// ---------------------------------------------------------------
// ScenarioEngine: execution
// ---------------------------------------------------------------

ScenarioResult
ScenarioEngine::run()
{
    return loop.run();
}

void
ScenarioEngine::recordPack(const std::string &path)
{
    // One pack stream per compiled tenant stream, in stream order
    // (= one per vCPU in resolved-tenant order) — the layout
    // ScenarioSpec::tracePack consumes on replay.
    TenantStreamSet &streams = loop.streams();
    const std::vector<ResolvedTenant> &tenants = loop.tenants();
    std::vector<std::string> names;
    names.reserve(streams.size());
    std::vector<unsigned> vcpu_seen(tenants.size(), 0);
    for (std::size_t s = 0; s < streams.size(); ++s) {
        const unsigned t = streams.at(s).tenant;
        names.push_back(tenants[t].name + "/" +
                        std::to_string(vcpu_seen[t]++));
    }

    TracePackWriter writer(path, std::move(names));
    std::vector<TraceRecord> block(static_cast<std::size_t>(
        TenantStreamSet::streamBlockRecords));
    for (std::size_t s = 0; s < streams.size(); ++s) {
        TenantStream &stream = streams.at(s);
        stream.source->rewind();
        std::uint64_t remaining = stream.totalRefs;
        while (remaining > 0) {
            const std::size_t want = static_cast<std::size_t>(
                std::min<std::uint64_t>(remaining, block.size()));
            const std::size_t got =
                stream.source->fill(block.data(), want);
            if (got == 0)
                throw TraceError(
                    "cannot record trace pack '" + path + "': " +
                    stream.source->describe() +
                    " ran out of records");
            writer.append(static_cast<std::uint32_t>(s),
                          block.data(), got);
            remaining -= got;
        }
        stream.source->rewind();
    }
    writer.close();
}

ScenarioResult
runScenario(Machine &machine, const ScenarioSpec &spec)
{
    ScenarioEngine engine(machine, spec);
    return engine.run();
}

// ---------------------------------------------------------------
// Identity, hashing, export
// ---------------------------------------------------------------

JsonValue
scenarioIdentityJson(const ScenarioSpec &spec)
{
    JsonValue identity = JsonValue::object();
    identity.set("schema", kScenarioSchemaV1);
    identity.set("name", spec.name);
    identity.set("scheme", canonicalScheme(spec.scheme));

    JsonValue config = JsonValue::object();
    config.set("system", systemConfigJson(spec.system));
    config.set("engine", engineConfigJson(spec.engine));
    identity.set("config", std::move(config));

    // The *resolved* tenants, so an explicit list and a generator
    // that expand to the same tenants hash identically.
    JsonValue tenant_list = JsonValue::array();
    for (const ResolvedTenant &t : spec.resolvedTenants()) {
        JsonValue tenant = JsonValue::object();
        tenant.set("name", t.name);
        tenant.set("benchmark", t.benchmark);
        tenant.set("vcpus", std::uint64_t(t.vcpus));
        tenant.set("vm", std::uint64_t(t.vm));
        tenant.set("pid_base", std::uint64_t(t.pidBase));
        tenant.set("arrival_refs", t.arrivalRefs);
        tenant.set("departure_refs", t.departureRefs);
        tenant.set("footprint_bytes", t.footprintBytes);
        tenant.set("multithreaded", t.multithreaded);
        // Only for pack-backed tenants, so generator-driven
        // identities (and their pinned digests) are unchanged. The
        // *content* hash, not the path: editing a record in place
        // changes — and re-executes — the memoized scenario.
        if (!t.tracePack.empty()) {
            tenant.set("trace_pack_hash",
                       tracePackContentHash(t.tracePack));
            tenant.set("trace_stream",
                       std::uint64_t(t.traceStreamBase));
        }
        tenant_list.push(std::move(tenant));
    }
    identity.set("tenants", std::move(tenant_list));

    JsonValue consolidation = JsonValue::object();
    consolidation.set("time_slice_refs",
                      spec.timeSliceRefs ? spec.timeSliceRefs
                                         : std::uint64_t{2000});
    consolidation.set("overcommit_factor", spec.overcommitFactor);
    consolidation.set("migration_pages_per_arrival",
                      spec.migrationPagesPerArrival);
    identity.set("consolidation", std::move(consolidation));

    JsonValue storm = JsonValue::object();
    storm.set("interval_refs", spec.storm.intervalRefs);
    storm.set("pages_per_burst",
              std::uint64_t(spec.storm.pagesPerBurst));
    identity.set("storm", std::move(storm));
    return identity;
}

std::string
scenarioHash(const ScenarioSpec &spec)
{
    return ContentHash::of(scenarioIdentityJson(spec).dump(0));
}

std::string
scenarioBenchmarkLabel(const ScenarioSpec &spec)
{
    std::vector<std::string> names;
    for (const ResolvedTenant &t : spec.resolvedTenants()) {
        if (std::find(names.begin(), names.end(), t.benchmark) ==
            names.end()) {
            names.push_back(t.benchmark);
        }
    }
    std::string label;
    for (const std::string &name : names) {
        if (!label.empty())
            label += "+";
        label += name;
    }
    return label;
}

JsonValue
buildScenarioDocument(Machine &machine, const ScenarioSpec &spec,
                      const ScenarioResult &result)
{
    JsonValue document = JsonValue::object();
    document.set("schema", kScenarioSchemaV1);
    document.set("scenario", scenarioIdentityJson(spec));
    document.set("scenario_hash", scenarioHash(spec));

    JsonValue tenant_list = JsonValue::array();
    for (const TenantResult &t : result.tenants) {
        JsonValue tenant = JsonValue::object();
        tenant.set("name", t.name);
        tenant.set("benchmark", t.benchmark);
        tenant.set("vm", std::uint64_t(t.vm));
        tenant.set("pid_base", std::uint64_t(t.pidBase));
        tenant.set("vcpus", std::uint64_t(t.vcpus));
        tenant.set("arrival_refs", t.arrivalRefs);
        tenant.set("departure_refs", t.departureRefs);
        tenant.set("departed", t.departed);
        tenant.set("refs", t.refs);
        tenant.set("l1_tlb_hits", t.l1TlbHits);
        tenant.set("l2_tlb_hits", t.l2TlbHits);
        tenant.set("last_level_tlb_misses", t.lastLevelTlbMisses);
        tenant.set("l1_hit_ratio",
                   t.refs ? static_cast<double>(t.l1TlbHits) /
                                static_cast<double>(t.refs)
                          : 0.0);
        tenant.set("l2_hit_ratio",
                   t.refs ? static_cast<double>(t.l2TlbHits) /
                                static_cast<double>(t.refs)
                          : 0.0);
        tenant.set("translation_cycles", t.translationCycles);
        tenant.set("avg_translation_cycles",
                   t.translationLatency.mean());
        tenant.set("p50_translation_cycles",
                   t.translationLatency.percentileUpperBound(50.0));
        tenant.set("p95_translation_cycles",
                   t.translationLatency.percentileUpperBound(95.0));
        tenant.set("p99_translation_cycles",
                   t.translationLatency.percentileUpperBound(99.0));
        tenant.set("page_walks", t.pageWalks);
        tenant.set("shootdowns", t.shootdowns);
        tenant.set("migrations", t.migrations);
        tenant.set("translation_cycle_histogram",
                   t.translationLatency.toJson());
        tenant_list.push(std::move(tenant));
    }
    document.set("tenants", std::move(tenant_list));

    JsonValue events = JsonValue::object();
    events.set("departures", result.departures);
    events.set("migrations", result.migrations);
    events.set("storm_shootdowns", result.stormShootdowns);
    document.set("events", std::move(events));

    document.set("stats",
                 buildStatsDocument(machine, result.run,
                                    scenarioBenchmarkLabel(spec)));
    return document;
}

// ---------------------------------------------------------------
// Campaigns: memoized, checkpointed scenario batches
// ---------------------------------------------------------------

JsonValue
runScenarioCampaign(const std::vector<ScenarioSpec> &specs,
                    const SweepServiceOptions &options,
                    SweepServiceStats *stats, const JobEmit &emit)
{
    std::vector<std::string> hashes;
    std::vector<std::string> keys;
    for (const ScenarioSpec &spec : specs) {
        hashes.push_back(scenarioHash(spec));
        keys.push_back(spec.name + "/" + canonicalScheme(spec.scheme));
    }
    SweepServiceStats accounting;
    JsonValue document = runMemoizedJobs(
        kScenarioSchemaV1, hashes, keys, options,
        [&](std::size_t index) {
            const ScenarioSpec &spec = specs[index];
            Machine machine(spec.system, spec.scheme);
            ScenarioEngine engine(machine, spec);
            const ScenarioResult result = engine.run();
            return buildScenarioDocument(machine, spec, result);
        },
        emit, accounting);
    if (stats)
        *stats = accounting;
    return document;
}

} // namespace pomtlb
