/**
 * @file
 * The sweep-at-scale layer: memoized, checkpointed, resumable
 * campaigns on top of sim/sweep.hh.
 *
 * A campaign is a large cross product of (benchmark, scheme, config)
 * jobs, and repeated campaigns overlap heavily — re-running the
 * unchanged 95% is wasted compute. Three cooperating pieces fix
 * that, all documented field-by-field in docs/sweep-service.md:
 *
 *  - **Content hashing** (jobIdentityJson / jobHash): every job is
 *    reduced to a canonical JSON identity — schema version,
 *    benchmark, canonical scheme name, label, and the *complete*
 *    serialised configuration — and hashed with 128-bit FNV-1a.
 *    Identical jobs get identical hashes in any process on any
 *    host; any knob that can change a result changes the hash.
 *
 *  - **The on-disk result cache** (SweepCache,
 *    `pomtlb-sweepcache-v1`): one JSON blob per job hash under a
 *    cache directory, written via atomic rename so readers never
 *    observe a torn entry; entries that fail validation are moved
 *    to a quarantine subdirectory (never silently served, never
 *    deleted) and the job simply re-runs.
 *
 *  - **The checkpoint journal** (SweepJournal,
 *    `pomtlb-sweepjournal-v1`): an append-only JSONL file, one
 *    record per completed job, flushed as each job finishes. A
 *    killed sweep resumes by replaying the journal: completed jobs
 *    are served from it, a torn trailing record (the crash write)
 *    is truncated away, and only the remainder executes.
 *
 * runMemoizedJobs is the one pipeline that orchestrates the three
 * around the SweepRunner pool and emits results *incrementally in
 * request order*, which is what the `pomtlb serve` protocol
 * (sim/sweep_serve.hh) streams to clients. SweepService (sweep jobs)
 * and runScenarioCampaign (sim/scenario.hh) are thin adapters over
 * it that supply the job hashes, keys and execute function.
 *
 * Determinism contract: a service-built document is byte-identical
 * whether every job executed, came from the cache, came from the
 * journal, or any mix — because the cache stores the exact
 * `pomtlb-sweep-v1` entry bytes and the only nondeterministic field
 * (`wall_seconds`, host wall clock) is normalised to 0 in the
 * identity form. Real wall times are reported out-of-band in the
 * journal records and job reports.
 */

#ifndef POMTLB_SIM_SWEEP_CACHE_HH
#define POMTLB_SIM_SWEEP_CACHE_HH

#include <cstddef>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/sweep.hh"

namespace pomtlb
{

/** Schema identifier of one on-disk cache entry. */
inline constexpr const char *kSweepCacheSchemaV1 =
    "pomtlb-sweepcache-v1";

/** Schema identifier of the checkpoint journal's header record. */
inline constexpr const char *kSweepJournalSchemaV1 =
    "pomtlb-sweepjournal-v1";

/**
 * Canonical identity serialisation of a SystemConfig: every field
 * that can influence a simulation result, in a fixed key order.
 * Shared by the sweep-job identity (jobIdentityJson) and the
 * scenario identity (scenarioIdentityJson in sim/scenario.hh) so
 * both hash the configuration the same way.
 */
JsonValue systemConfigJson(const SystemConfig &config);

/** Canonical identity serialisation of an EngineConfig. */
JsonValue engineConfigJson(const EngineConfig &config);

/**
 * The canonical JSON identity of one sweep job: cache-schema
 * version, benchmark, canonical scheme name, variant label, the
 * component-stats flag, and the complete configuration (every
 * SystemConfig and EngineConfig field that can influence a result).
 * ExperimentConfig::sweepJobs is deliberately excluded — results
 * are bit-identical at any worker count, so it must not split the
 * cache.
 *
 * Growing the configuration structs means extending this serialiser
 * (and bumping the cache schema version when semantics change);
 * the hash-stability test pins the current recipe.
 */
JsonValue jobIdentityJson(const ExperimentRequest &request);

/**
 * The job's content hash: 32 hex characters of 128-bit FNV-1a over
 * the compact serialisation of jobIdentityJson(). Stable across
 * processes and hosts; this is the cache key and journal key.
 */
std::string jobHash(const ExperimentRequest &request);

/**
 * Hash of a whole campaign: FNV-1a over the newline-joined job
 * hashes (order-sensitive). The journal header records it so a
 * journal is only ever replayed against the sweep that wrote it.
 */
std::string sweepHash(const std::vector<std::string> &job_hashes);

/**
 * The on-disk result cache: `<dir>/<job-hash>.json`, one
 * `pomtlb-sweepcache-v1` blob per entry.
 *
 * Writes go to a hidden temporary in the same directory and are
 * published with rename(), which is atomic on POSIX filesystems —
 * a concurrent reader sees the old entry, no entry, or the new
 * entry, never a prefix. Entries that fail validation on read
 * (unparsable, wrong schema, wrong hash, missing run) are moved to
 * `<dir>/quarantine/` for post-mortem and reported as misses.
 */
class SweepCache
{
  public:
    /** Open (and create if needed) the cache at @p dir. */
    explicit SweepCache(std::string dir);

    /** Path the entry for @p job_hash lives at. */
    std::string entryPath(const std::string &job_hash) const;

    /**
     * The cached `pomtlb-sweep-v1` run entry for @p job_hash, or
     * nullopt on miss. A corrupt entry is quarantined and reported
     * as a miss.
     */
    std::optional<JsonValue> lookup(const std::string &job_hash);

    /**
     * Atomically publish @p run (a `pomtlb-sweep-v1` run entry in
     * identity form) as the cache entry for @p job_hash. @p key is
     * the human-readable "benchmark/scheme[/label]" recorded
     * alongside for debuggability. Failures are reported with
     * warn() and swallowed — the cache is an optimisation, never a
     * correctness dependency.
     */
    void store(const std::string &job_hash, const std::string &key,
               const JsonValue &run);

    /** Entries quarantined by this instance. */
    std::size_t quarantined() const { return quarantineCount; }

  private:
    void quarantine(const std::string &path);

    std::string directory;
    std::size_t quarantineCount = 0;
    std::size_t tmpCounter = 0;
};

/**
 * The append-only checkpoint journal of one campaign
 * (`pomtlb-sweepjournal-v1` JSONL).
 *
 * Line 1 is a header naming the campaign (sweep hash + job count);
 * every subsequent line is one completed job: its hash, key,
 * source, real wall seconds, and the full run entry. open()
 * replays an existing file — dropping a torn trailing line, and
 * restarting the file entirely when the header names a different
 * campaign — and leaves the journal positioned for appends.
 */
class SweepJournal
{
  public:
    explicit SweepJournal(std::string journal_path);

    /**
     * Replay and position for append. Returns the completed jobs
     * (job hash -> run entry) when the existing header matches
     * @p sweep_hash_value / @p jobs; otherwise the file is
     * restarted with a fresh header and the map is empty.
     */
    std::map<std::string, JsonValue>
    open(const std::string &sweep_hash_value, std::size_t jobs);

    /** Append one completed-job record and flush it to the OS. */
    void append(const std::string &job_hash, const std::string &key,
                const std::string &source, double wall_seconds,
                const JsonValue &run);

    /** Records appended through this instance (not replayed ones). */
    std::size_t appended() const { return appendCount; }

    /** The journal's path. */
    const std::string &path() const { return journalPath; }

  private:
    std::string journalPath;
    std::ofstream out;
    std::size_t appendCount = 0;
};

/** Accounting of one sweepCacheGc() pass. */
struct SweepCacheGcStats
{
    std::size_t scanned = 0;     /**< Entries examined. */
    std::size_t evicted = 0;     /**< Entries removed. */
    std::uint64_t bytesFreed = 0; /**< Bytes of removed entries. */
    std::uint64_t bytesKept = 0;  /**< Bytes of surviving entries. */
};

/**
 * Evict entries from the sweep cache at @p dir: first every
 * top-level `*.json` entry older than @p max_age_seconds (0 = no
 * age limit), then oldest-first — ties broken by name for
 * determinism — until the survivors total at most @p max_bytes
 * (0 = no size limit). Only top-level entry files are candidates:
 * the quarantine subdirectory (post-mortem evidence) and hidden
 * in-flight temporaries are never touched.
 *
 * With @p dry_run set, nothing is removed: the returned stats
 * report what the same two-pass eviction *would* delete (evicted /
 * bytesFreed) and keep, so operators can audit a policy before
 * applying it (`pomtlb cache-gc --dry-run`).
 */
SweepCacheGcStats sweepCacheGc(const std::string &dir,
                               std::uint64_t max_bytes,
                               std::uint64_t max_age_seconds,
                               bool dry_run = false);

/** Where a job's result came from. */
enum class JobSource
{
    Executed, /**< Simulated in this process. */
    Cache,    /**< Served from the on-disk result cache. */
    Journal,  /**< Replayed from the checkpoint journal. */
};

/** Human-readable name of a JobSource ("executed", ...). */
const char *jobSourceName(JobSource source);

/** Per-job completion report handed to the emit callback. */
struct SweepJobReport
{
    std::size_t index = 0;  /**< Position in the request vector. */
    /** "benchmark/scheme[/label]", or "name/scheme" for a scenario. */
    std::string key;
    std::string hash;       /**< The job's content hash. */
    JobSource source = JobSource::Executed; /**< Result origin. */
    /** Host wall seconds actually spent (0 for cache/journal). */
    double wallSeconds = 0.0;
};

/**
 * Aggregate accounting of one campaign (SweepService::run or
 * runScenarioCampaign). Each distinct job hash counts once, under
 * where its result came from; every further request with that hash
 * counts in @c deduplicated, so
 * executed + cacheHits + journalHits + deduplicated == jobs.
 */
struct SweepServiceStats
{
    std::size_t jobs = 0;         /**< Requests in the campaign. */
    std::size_t executed = 0;     /**< Simulations actually run. */
    std::size_t cacheHits = 0;    /**< Hashes served from the cache. */
    std::size_t journalHits = 0;  /**< Hashes replayed from journal. */
    std::size_t deduplicated = 0; /**< Duplicate-hash jobs reused. */
    std::size_t quarantined = 0;  /**< Corrupt cache entries moved. */
};

/** Knobs of one campaign (SweepService or runScenarioCampaign). */
struct SweepServiceOptions
{
    /** Result-cache directory; empty disables memoization. */
    std::string cacheDir;
    /** Checkpoint-journal path; empty disables checkpointing. */
    std::string journalPath;
    /**
     * Worker threads, resolved by SweepRunner::resolveJobs (0 =
     * POMTLB_SWEEP_JOBS, else all hardware threads).
     */
    unsigned jobs = 1;
    /**
     * Fault injection for the crash/resume tests (and the
     * POMTLB_SWEEP_CRASH_AFTER CLI hook): after this many journal
     * appends the process exits immediately with status 137 —
     * no flushes, no destructors, like SIGKILL. 0 disables.
     */
    unsigned crashAfterAppends = 0;
};

/**
 * Called for every job of a campaign, strictly in request order, as
 * the completed prefix of the campaign extends — cached prefixes
 * stream out before (and while) later jobs execute. @p run is the
 * job's result entry in identity form.
 */
using JobEmit = std::function<void(const SweepJobReport &report,
                                   const JsonValue &run)>;

/**
 * Executes job @p index of a campaign and returns its result entry
 * in identity form (no host wall time in it). May run on any worker
 * thread; it must not touch state shared with other jobs.
 */
using JobExecute = std::function<JsonValue(std::size_t index)>;

/**
 * The memoized-job pipeline every campaign runs on. Given each job's
 * content hash and human-readable key, it replays the checkpoint
 * journal, probes the result cache, deduplicates equal hashes,
 * executes only the remaining delta on a SweepRunner pool of
 * @c options.jobs workers, stores and journals every completion
 * (honouring @c options.crashAfterAppends), emits every job in
 * request order, and accounts the campaign in @p stats.
 *
 * Returns `{"schema": schema, "runs": [...]}` with one entry per
 * job in request order — byte-identical for any cache/journal/
 * execution mix and any worker count. A failing job propagates the
 * deterministic lowest-index exception of SweepRunner::forEach;
 * completed jobs are already journaled by then, so a failed campaign
 * resumes past everything that succeeded.
 */
JsonValue runMemoizedJobs(const char *schema,
                          const std::vector<std::string> &hashes,
                          const std::vector<std::string> &keys,
                          const SweepServiceOptions &options,
                          const JobExecute &execute,
                          const JobEmit &emit,
                          SweepServiceStats &stats);

/**
 * A campaign of sweep jobs: runMemoizedJobs over ExperimentRequests,
 * hashed by jobHash and keyed "benchmark/scheme[/label]".
 */
class SweepService
{
  public:
    explicit SweepService(SweepServiceOptions service_options);

    /** Per-job callback (see JobEmit); @c run is a sweep entry. */
    using Emit = JobEmit;

    /**
     * Run the campaign; returns the complete `pomtlb-sweep-v1`
     * document (see runMemoizedJobs for the guarantees).
     */
    JsonValue run(const std::vector<ExperimentRequest> &requests,
                  const Emit &emit = Emit());

    /** Expand a spec and run it. */
    JsonValue run(const SweepSpec &spec, const Emit &emit = Emit())
    {
        return run(spec.expand(), emit);
    }

    /** Accounting of the most recent run(). */
    const SweepServiceStats &stats() const { return lastStats; }

    /** The options this service was built with. */
    const SweepServiceOptions &options() const
    {
        return serviceOptions;
    }

  private:
    SweepServiceOptions serviceOptions;
    SweepServiceStats lastStats;
};

} // namespace pomtlb

#endif // POMTLB_SIM_SWEEP_CACHE_HH
