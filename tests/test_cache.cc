/**
 * @file
 * Set-associative cache tests: hit/miss behaviour, eviction,
 * dirty-line writeback accounting, TLB-line occupancy tracking, the
 * 32-bit tag bound, zero-page set blocks, and a differential test
 * against a naive per-set LRU-list model at every set-block size.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "common/rng.hh"
#include "resident_memory.hh"

namespace pomtlb
{
namespace
{

CacheConfig
tinyCache()
{
    CacheConfig config;
    config.name = "test";
    config.sizeBytes = 4 * 1024; // 16 sets x 4 ways x 64 B
    config.associativity = 4;
    config.lineBytes = 64;
    config.accessLatency = 3;
    return config;
}

/** Address mapping to a given (set, tag) in the tiny cache. */
Addr
addrFor(std::uint64_t set, std::uint64_t tag)
{
    return (tag << (6 + 4)) | (set << 6);
}

TEST(Cache, MissThenHit)
{
    SetAssocCache cache(tinyCache());
    const Addr addr = addrFor(3, 7);
    EXPECT_FALSE(
        cache.lookup(addr, AccessType::Read, LineKind::Data).hit);
    cache.fill(addr, LineKind::Data);
    EXPECT_TRUE(
        cache.lookup(addr, AccessType::Read, LineKind::Data).hit);
    EXPECT_TRUE(cache.contains(addr));
}

TEST(Cache, SameLineDifferentOffsets)
{
    SetAssocCache cache(tinyCache());
    cache.fill(addrFor(1, 1), LineKind::Data);
    EXPECT_TRUE(cache.lookup(addrFor(1, 1) + 63, AccessType::Read,
                             LineKind::Data)
                    .hit);
}

TEST(Cache, EvictionOnFullSet)
{
    SetAssocCache cache(tinyCache());
    for (std::uint64_t tag = 0; tag < 4; ++tag)
        cache.fill(addrFor(0, tag), LineKind::Data);
    // A fifth line in the same set must evict the LRU (tag 0).
    const CacheFillResult fill =
        cache.fill(addrFor(0, 100), LineKind::Data);
    EXPECT_TRUE(fill.evicted);
    EXPECT_EQ(fill.victimAddr, addrFor(0, 0));
    EXPECT_FALSE(cache.contains(addrFor(0, 0)));
    EXPECT_TRUE(cache.contains(addrFor(0, 100)));
}

TEST(Cache, WriteMarksDirtyAndWritebackCounts)
{
    SetAssocCache cache(tinyCache());
    cache.fill(addrFor(0, 0), LineKind::Data);
    cache.lookup(addrFor(0, 0), AccessType::Write, LineKind::Data);
    for (std::uint64_t tag = 1; tag <= 4; ++tag)
        cache.fill(addrFor(0, tag), LineKind::Data);
    // The dirty line was evicted: one writeback.
    EXPECT_EQ(cache.writebackCount(), 1u);
}

TEST(Cache, DirtyFillEvictionReportsDirtyVictim)
{
    SetAssocCache cache(tinyCache());
    cache.fill(addrFor(0, 0), LineKind::Data, /*dirty=*/true);
    for (std::uint64_t tag = 1; tag < 4; ++tag)
        cache.fill(addrFor(0, tag), LineKind::Data);
    const CacheFillResult fill =
        cache.fill(addrFor(0, 9), LineKind::Data);
    EXPECT_TRUE(fill.evicted);
    EXPECT_TRUE(fill.victimDirty);
}

TEST(Cache, TlbLineOccupancyTracked)
{
    SetAssocCache cache(tinyCache());
    EXPECT_EQ(cache.tlbLineCount(), 0u);
    cache.fill(addrFor(0, 0), LineKind::TlbEntry);
    cache.fill(addrFor(1, 0), LineKind::TlbEntry);
    cache.fill(addrFor(2, 0), LineKind::Data);
    EXPECT_EQ(cache.tlbLineCount(), 2u);
    EXPECT_EQ(cache.validLineCount(), 3u);

    cache.invalidate(addrFor(0, 0));
    EXPECT_EQ(cache.tlbLineCount(), 1u);
    EXPECT_EQ(cache.validLineCount(), 2u);
}

TEST(Cache, TlbVictimReported)
{
    SetAssocCache cache(tinyCache());
    cache.fill(addrFor(0, 0), LineKind::TlbEntry);
    for (std::uint64_t tag = 1; tag < 4; ++tag)
        cache.fill(addrFor(0, tag), LineKind::Data);
    const CacheFillResult fill =
        cache.fill(addrFor(0, 50), LineKind::Data);
    EXPECT_TRUE(fill.evicted);
    EXPECT_EQ(fill.victimKind, LineKind::TlbEntry);
    EXPECT_EQ(cache.tlbLineCount(), 0u);
}

TEST(Cache, RefillInPlaceDoesNotEvict)
{
    SetAssocCache cache(tinyCache());
    cache.fill(addrFor(0, 0), LineKind::Data);
    const CacheFillResult fill =
        cache.fill(addrFor(0, 0), LineKind::Data, /*dirty=*/true);
    EXPECT_FALSE(fill.evicted);
    EXPECT_EQ(cache.validLineCount(), 1u);
}

TEST(Cache, KindChangeOnRefillUpdatesOccupancy)
{
    SetAssocCache cache(tinyCache());
    cache.fill(addrFor(0, 0), LineKind::Data);
    cache.fill(addrFor(0, 0), LineKind::TlbEntry);
    EXPECT_EQ(cache.tlbLineCount(), 1u);
    cache.fill(addrFor(0, 0), LineKind::Data);
    EXPECT_EQ(cache.tlbLineCount(), 0u);
}

TEST(Cache, HitRatesByKind)
{
    SetAssocCache cache(tinyCache());
    cache.fill(addrFor(0, 0), LineKind::Data);
    cache.lookup(addrFor(0, 0), AccessType::Read, LineKind::Data);
    cache.lookup(addrFor(1, 0), AccessType::Read, LineKind::Data);
    cache.lookup(addrFor(2, 0), AccessType::Read, LineKind::TlbEntry);
    EXPECT_DOUBLE_EQ(cache.hitRate(LineKind::Data), 0.5);
    EXPECT_DOUBLE_EQ(cache.hitRate(LineKind::TlbEntry), 0.0);
    EXPECT_NEAR(cache.hitRate(), 1.0 / 3.0, 1e-12);
}

TEST(Cache, FlushDropsEverything)
{
    SetAssocCache cache(tinyCache());
    cache.fill(addrFor(0, 0), LineKind::Data);
    cache.fill(addrFor(1, 0), LineKind::TlbEntry);
    EXPECT_EQ(cache.flush(), 2u);
    EXPECT_EQ(cache.validLineCount(), 0u);
    EXPECT_EQ(cache.tlbLineCount(), 0u);
    EXPECT_FALSE(cache.contains(addrFor(0, 0)));
}

TEST(Cache, LruOrderRespectsLookups)
{
    SetAssocCache cache(tinyCache());
    for (std::uint64_t tag = 0; tag < 4; ++tag)
        cache.fill(addrFor(0, tag), LineKind::Data);
    // Touch tag 0 so tag 1 becomes LRU.
    cache.lookup(addrFor(0, 0), AccessType::Read, LineKind::Data);
    const CacheFillResult fill =
        cache.fill(addrFor(0, 77), LineKind::Data);
    EXPECT_EQ(fill.victimAddr, addrFor(0, 1));
}

/**
 * Naive reference model of SetAssocCache: each set is a list of
 * resident lines from least to most recently used. No ages, no
 * stored-tag encoding, no way indices — so an optimisation of the real
 * layout cannot hide a change in behaviour behind a matching one
 * here.
 */
class ReferenceCache
{
  public:
    struct Line
    {
        Addr line = 0;
        LineKind kind = LineKind::Data;
        bool dirty = false;
    };

    ReferenceCache(std::uint64_t sets, unsigned ways, bool retain_tlb)
        : lists(sets), ways(ways), retainTlb(retain_tlb)
    {
    }

    CacheLookupResult
    lookup(Addr addr, AccessType type, LineKind probe)
    {
        auto &set = setOf(addr);
        const auto it = find(set, addr);
        const int k = probe == LineKind::Data ? 0 : 1;
        if (it == set.end()) {
            ++misses[k];
            return {};
        }
        Line line = *it;
        set.erase(it);
        line.dirty |= type == AccessType::Write;
        set.push_back(line);
        ++hits[k];
        return {true, line.kind};
    }

    CacheFillResult
    fill(Addr addr, LineKind kind, bool dirty)
    {
        auto &set = setOf(addr);
        CacheFillResult result;
        const auto it = find(set, addr);
        if (it != set.end()) {
            Line line = *it;
            set.erase(it);
            line.dirty |= dirty;
            line.kind = kind;
            set.push_back(line);
            return result;
        }
        if (set.size() == ways) {
            // LRU; the TLB-aware policy prefers the LRU data line.
            auto victim = set.begin();
            if (retainTlb) {
                const auto data = std::find_if(
                    set.begin(), set.end(), [](const Line &line) {
                        return line.kind == LineKind::Data;
                    });
                if (data != set.end())
                    victim = data;
            }
            result.evicted = true;
            result.victimAddr = victim->line;
            result.victimDirty = victim->dirty;
            result.victimKind = victim->kind;
            writebacks += victim->dirty ? 1 : 0;
            set.erase(victim);
        }
        set.push_back({lineOf(addr), kind, dirty});
        return result;
    }

    bool
    invalidate(Addr addr)
    {
        auto &set = setOf(addr);
        const auto it = find(set, addr);
        if (it == set.end())
            return false;
        set.erase(it);
        return true;
    }

    std::uint64_t
    flush()
    {
        const std::uint64_t dropped = lines().size();
        for (auto &set : lists)
            set.clear();
        return dropped;
    }

    std::vector<Line>
    lines() const
    {
        std::vector<Line> all;
        for (const auto &set : lists)
            all.insert(all.end(), set.begin(), set.end());
        return all;
    }

    std::uint64_t hits[2] = {0, 0};   //!< Indexed by probe kind.
    std::uint64_t misses[2] = {0, 0}; //!< Indexed by probe kind.
    std::uint64_t writebacks = 0;

  private:
    static Addr lineOf(Addr addr) { return addr & ~Addr{63}; }

    std::vector<Line> &
    setOf(Addr addr)
    {
        return lists[(addr >> 6) & (lists.size() - 1)];
    }

    static std::vector<Line>::iterator
    find(std::vector<Line> &set, Addr addr)
    {
        return std::find_if(set.begin(), set.end(),
                            [&](const Line &line) {
                                return line.line == lineOf(addr);
                            });
    }

    std::vector<std::vector<Line>> lists;
    std::size_t ways;
    bool retainTlb;
};

TEST(Cache, MatchesReferenceModelOnRandomStream)
{
    // Every set-block size class: sub-line blocks that share a host
    // line (1, 2 and 4 ways), one line (8), a line pair (12, 16) and
    // four lines (32).
    for (const unsigned ways : {1u, 2u, 4u, 8u, 12u, 16u, 32u}) {
        for (const TlbLinePolicy policy :
             {TlbLinePolicy::None, TlbLinePolicy::RetainTlb}) {
            SCOPED_TRACE(std::to_string(ways) + " ways, " +
                         (policy == TlbLinePolicy::None ? "plain LRU"
                                                        : "retain TLB"));
            CacheConfig config = tinyCache();
            config.associativity = ways;
            config.sizeBytes = 16 * ways * config.lineBytes; // 16 sets
            SetAssocCache cache(config);
            cache.setTlbLinePolicy(policy);
            ReferenceCache ref(config.numSets(), config.associativity,
                               policy == TlbLinePolicy::RetainTlb);
            Rng rng(policy == TlbLinePolicy::None ? 1 : 2);

            // Three neighbouring sets and 2 x ways + 2 tags per set,
            // so sets fill, evict and refill; offsets inside a line
            // must not matter.
            const std::uint64_t tags = 2 * ways + 2;
            for (int op = 0; op < 20000; ++op) {
                const Addr addr =
                    addrFor(rng.below(3), rng.below(tags)) |
                    rng.below(64);
                const LineKind kind = rng.chance(0.3)
                                          ? LineKind::TlbEntry
                                          : LineKind::Data;
                const std::uint64_t draw = rng.below(1000);
                SCOPED_TRACE("op " + std::to_string(op));
                if (draw < 450) {
                    const AccessType type = rng.chance(0.3)
                                                ? AccessType::Write
                                                : AccessType::Read;
                    const CacheLookupResult got =
                        cache.lookup(addr, type, kind);
                    const CacheLookupResult want =
                        ref.lookup(addr, type, kind);
                    ASSERT_EQ(got.hit, want.hit);
                    if (want.hit) {
                        ASSERT_EQ(got.kind, want.kind);
                    }
                } else if (draw < 900) {
                    const bool dirty = rng.chance(0.2);
                    const CacheFillResult got =
                        cache.fill(addr, kind, dirty);
                    const CacheFillResult want =
                        ref.fill(addr, kind, dirty);
                    ASSERT_EQ(got.evicted, want.evicted);
                    if (want.evicted) {
                        ASSERT_EQ(got.victimAddr, want.victimAddr);
                        ASSERT_EQ(got.victimDirty, want.victimDirty);
                        ASSERT_EQ(got.victimKind, want.victimKind);
                    }
                } else if (draw < 995) {
                    ASSERT_EQ(cache.invalidate(addr),
                              ref.invalidate(addr));
                } else {
                    ASSERT_EQ(cache.flush(), ref.flush());
                }

                // Same resident lines and kinds, same counters.
                const auto lines = ref.lines();
                ASSERT_EQ(cache.validLineCount(), lines.size());
                std::uint64_t tlb_lines = 0;
                for (const auto &line : lines) {
                    ASSERT_TRUE(cache.contains(line.line)) << line.line;
                    tlb_lines +=
                        line.kind == LineKind::TlbEntry ? 1 : 0;
                }
                ASSERT_EQ(cache.tlbLineCount(), tlb_lines);
                ASSERT_EQ(cache.hitCount(LineKind::Data), ref.hits[0]);
                ASSERT_EQ(cache.hitCount(LineKind::TlbEntry),
                          ref.hits[1]);
                ASSERT_EQ(cache.missCount(LineKind::Data),
                          ref.misses[0]);
                ASSERT_EQ(cache.missCount(LineKind::TlbEntry),
                          ref.misses[1]);
                ASSERT_EQ(cache.writebackCount(), ref.writebacks);
            }
        }
    }
}

TEST(Cache, OversizedTagFailsLoudly)
{
    // The tag lane holds 32 bits: a wider tag panics, naming the
    // cache and the address, instead of aliasing another line, and
    // a lookup of one misses.
    SetAssocCache cache(tinyCache());
    const Addr widest = addrFor(0, 0xfffffffe);
    const Addr too_wide = addrFor(0, 0xffffffff);
    try {
        cache.fill(too_wide, LineKind::Data);
        FAIL() << "expected a panic";
    } catch (const std::logic_error &error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("test"), std::string::npos) << message;
        EXPECT_NE(message.find(std::to_string(too_wide)),
                  std::string::npos)
            << message;
    }
    EXPECT_EQ(cache.validLineCount(), 0u);
    EXPECT_FALSE(
        cache.lookup(too_wide, AccessType::Read, LineKind::Data).hit);
    EXPECT_FALSE(cache.contains(too_wide));
    EXPECT_FALSE(cache.invalidate(too_wide));

    cache.fill(widest, LineKind::Data);
    EXPECT_TRUE(cache.contains(widest));
    EXPECT_FALSE(cache.contains(too_wide));
    cache.fill(addrFor(0, 1), LineKind::Data);
    cache.fill(addrFor(0, 2), LineKind::Data);
    cache.fill(addrFor(0, 3), LineKind::Data);
    EXPECT_EQ(cache.fill(addrFor(0, 4), LineKind::Data).victimAddr,
              widest);
}

TEST(CacheConfig, RejectsMoreWaysThanTheSetScanHolds)
{
    CacheConfig config = tinyCache();
    config.associativity = 64;
    config.sizeBytes = 64 * 64;
    config.validate();
    config.associativity = 128;
    config.sizeBytes = 128 * 64;
    EXPECT_DEATH_IF_SUPPORTED(
        { config.validate(); },
        "cache 'test': associativity 128 exceeds the 64-way set scan");
}

TEST(CacheFootprint, OnlyTouchedSetsAreResident)
{
    if (residentKb() < 0)
        GTEST_SKIP() << "/proc/self/smaps_rollup is not readable";

    const CacheConfig config = SystemConfig::table1().l3;
    const long before = residentKb();
    SetAssocCache cache(config);
    // Misses read never-written set blocks, which maps no memory.
    for (std::uint64_t line = 0; line < 4096; ++line) {
        ASSERT_FALSE(cache
                         .lookup(line * 7 * config.lineBytes,
                                 AccessType::Read, LineKind::Data)
                         .hit);
    }
    EXPECT_LT(residentKb() - before, 64)
        << "constructing and probing " << config.name
        << " made its set blocks resident";
}

} // namespace
} // namespace pomtlb
