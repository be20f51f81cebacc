/**
 * @file
 * A generic set-associative, write-back, write-allocate cache model.
 *
 * The model tracks tags only (no data payloads — this is a timing and
 * hit/miss simulator). Each line remembers whether it holds a cached
 * POM-TLB entry, so the experiments can report how translation lines
 * and ordinary data compete for capacity (Sections 4.2 and 5.1).
 *
 * Hot-path layout: each set is one contiguous set block
 * (common/setscan.hh) — a 32-bit tag lane, one LRU age byte per way
 * and one meta (dirty/kind) byte per way — so a probe and its victim
 * choice touch one 64 B host line for an 8-way set, an aligned line
 * pair for a 16-way set, and half a line for a 4-way set. The lane
 * stores `tag + 1`, so a zero word is an invalid way and a fresh
 * cache is one untouched zero-page mapping. Tags must therefore fit
 * 32 bits; fill() panics on a wider one and a lookup of one misses.
 * Replacement is exact LRU (Table 1) from the per-way ages, which
 * the Section 5.1 TLB-aware victim scan also reads.
 */

#ifndef POMTLB_CACHE_CACHE_HH
#define POMTLB_CACHE_CACHE_HH

#include <cstdint>
#include <string>

#include "common/config.hh"
#include "common/setscan.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace pomtlb
{

/** What a cache line holds, for occupancy accounting. */
enum class LineKind : std::uint8_t
{
    Data = 0,
    TlbEntry = 1,
};

/** Result of a cache lookup. */
struct CacheLookupResult
{
    bool hit = false;
    /** Valid only on hit: what kind of line hit. */
    LineKind kind = LineKind::Data;
};

/** Result of a fill: whether/what got evicted. */
struct CacheFillResult
{
    bool evicted = false;
    Addr victimAddr = 0;
    bool victimDirty = false;
    LineKind victimKind = LineKind::Data;
};

/**
 * How a cache arbitrates between data lines and cached POM-TLB lines
 * when choosing an eviction victim (Section 5.1, "TLB-Aware Caching").
 */
enum class TlbLinePolicy : std::uint8_t
{
    /** Plain LRU: TLB lines compete with data on equal terms. */
    None = 0,
    /**
     * Retain TLB lines: when a fill must evict and the set holds any
     * data line, the least-recently-used *data* line is evicted in
     * preference to any TLB line. Useful when translation misses are
     * costlier than the data misses the displaced lines would cause.
     */
    RetainTlb = 1,
};

/** One level of set-associative cache. */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheConfig &config);

    /** Select the Section 5.1 TLB-aware victim policy. */
    void setTlbLinePolicy(TlbLinePolicy policy)
    {
        tlbPolicy = policy;
    }
    TlbLinePolicy tlbLinePolicy() const { return tlbPolicy; }

    /**
     * Look up the line containing @p addr. On a hit the replacement
     * state is updated and, for writes, the line is marked dirty.
     */
    CacheLookupResult lookup(Addr addr, AccessType type,
                             LineKind probe_kind);

    /** State-preserving lookup (no replacement update, no stats). */
    bool contains(Addr addr) const;

    /**
     * Install the line containing @p addr (after a miss was resolved
     * by an outer level), evicting a victim if the set is full.
     */
    CacheFillResult fill(Addr addr, LineKind kind, bool dirty = false);

    /** Drop the line containing @p addr if present. */
    bool invalidate(Addr addr);

    /**
     * Hint the host to fetch the set block @p addr maps to, ahead of
     * an access to it. No simulated state or statistic changes.
     * Always inlined: GCC drops calls to a function that only
     * prefetches.
     */
    [[gnu::always_inline]] void
    prefetch(Addr addr) const
    {
        blocks.prefetch(setIndex(addr));
    }

    /** Drop every line (returns number of lines dropped). */
    std::uint64_t flush();

    /** Number of currently valid lines holding TLB entries. */
    std::uint64_t tlbLineCount() const { return tlbLines; }

    /** Number of currently valid lines. */
    std::uint64_t validLineCount() const { return validLines; }

    double hitRate() const;
    /** Hit rate counting only probes of the given kind. */
    double hitRate(LineKind kind) const;

    Cycles latency() const { return cacheConfig.accessLatency; }
    const CacheConfig &config() const { return cacheConfig; }
    const StatGroup &stats() const { return statGroup; }
    void resetStats();

    std::uint64_t hitCount(LineKind kind) const
    {
        return kind == LineKind::Data ? dataHits.value()
                                      : tlbHits.value();
    }
    std::uint64_t missCount(LineKind kind) const
    {
        return kind == LineKind::Data ? dataMisses.value()
                                      : tlbMisses.value();
    }
    std::uint64_t writebackCount() const { return writebacks.value(); }

  private:
    /** meta lane bit 0: line dirty. */
    static constexpr std::uint8_t metaDirty = 1u << 0;
    /** meta lane bit 1: line caches a POM-TLB entry. */
    static constexpr std::uint8_t metaTlb = 1u << 1;

    std::uint64_t
    setIndex(Addr addr) const
    {
        return (addr >> lineShift) & (sets - 1);
    }
    /**
     * The tag lane's word for @p addr: its tag plus one, or 0 (no
     * way holds it) when the tag does not fit 32 bits.
     */
    std::uint32_t storedTag(Addr addr) const;
    Addr lineAddr(std::uint64_t set, std::uint32_t stored) const;

    /** The tag lane of the set block at @p block. */
    static std::uint32_t *
    tagLane(std::uint8_t *block)
    {
        return reinterpret_cast<std::uint32_t *>(block);
    }
    /** The age lane (one byte per way) of the set block. */
    std::uint8_t *ageLane(std::uint8_t *block) const
    {
        return block + 4 * ways;
    }
    /** The meta lane (metaDirty / metaTlb per way) of the block. */
    std::uint8_t *metaLane(std::uint8_t *block) const
    {
        return block + 5 * ways;
    }
    /** Way of @p block holding @p stored, or the associativity. */
    unsigned
    matchWay(const std::uint8_t *block, std::uint32_t stored) const
    {
        if (stored == 0)
            return ways;
        return findKeyWay(
            reinterpret_cast<const std::uint32_t *>(block), ways,
            stored);
    }
    /** LRU victim way of a full set, honouring the TLB policy. */
    unsigned victimWay(std::uint8_t *block) const;

    static LineKind
    kindOf(std::uint8_t meta_bits)
    {
        return (meta_bits & metaTlb) ? LineKind::TlbEntry
                                     : LineKind::Data;
    }

    CacheConfig cacheConfig;
    std::uint64_t sets;
    unsigned ways;
    unsigned lineShift;
    unsigned setBits;

    /** One block per set: tag lane, age lane, meta lane. */
    SetBlocks blocks;

    TlbLinePolicy tlbPolicy = TlbLinePolicy::None;
    std::uint64_t tlbLines = 0;
    std::uint64_t validLines = 0;

    Counter dataHits;
    Counter dataMisses;
    Counter tlbHits;
    Counter tlbMisses;
    Counter fills;
    Counter evictions;
    Counter writebacks;
    Counter invalidations;
    StatGroup statGroup;
};

} // namespace pomtlb

#endif // POMTLB_CACHE_CACHE_HH
