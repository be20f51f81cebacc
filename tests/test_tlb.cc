/**
 * @file
 * SRAM TLB tests: tag matching across page sizes, VM/process
 * isolation, eviction, shootdowns, the associativity bound, and a
 * differential test against a naive per-set LRU-list model at every
 * set-block size.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/rng.hh"
#include "tlb/tlb.hh"

namespace pomtlb
{
namespace
{

TlbConfig
tinyTlb()
{
    TlbConfig config;
    config.name = "test";
    config.entries = 16;
    config.associativity = 4; // 4 sets
    config.missPenalty = 9;
    return config;
}

TEST(Tlb, InsertThenLookup)
{
    SetAssocTlb tlb(tinyTlb());
    tlb.insert(0x100, PageSize::Small4K, 1, 2, 0x900);
    const TlbLookupResult hit =
        tlb.lookup(0x100, PageSize::Small4K, 1, 2);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.pfn, 0x900u);
}

TEST(Tlb, OversizedFieldsFailLoudly)
{
    // A PFN or VPN too wide for the 16-byte entry panics instead of
    // being truncated.
    SetAssocTlb tlb(tinyTlb());
    EXPECT_THROW(tlb.insert(0x100, PageSize::Small4K, 1, 2,
                            TlbEntry::maxPfn + 1),
                 std::logic_error);
    EXPECT_THROW(tlb.insert(TlbEntry::maxVpn + 1, PageSize::Small4K, 1,
                            2, 0x900),
                 std::logic_error);
    EXPECT_EQ(tlb.validEntryCount(), 0u);
    tlb.insert(TlbEntry::maxVpn, PageSize::Small4K, 1, 2,
               TlbEntry::maxPfn);
    EXPECT_EQ(tlb.lookup(TlbEntry::maxVpn, PageSize::Small4K, 1, 2).pfn,
              TlbEntry::maxPfn);
}

TEST(Tlb, PageSizeIsPartOfTheTag)
{
    SetAssocTlb tlb(tinyTlb());
    tlb.insert(0x100, PageSize::Small4K, 1, 2, 0x900);
    EXPECT_FALSE(tlb.lookup(0x100, PageSize::Large2M, 1, 2).hit);
}

TEST(Tlb, VmAndPidIsolation)
{
    SetAssocTlb tlb(tinyTlb());
    tlb.insert(0x100, PageSize::Small4K, 1, 2, 0x900);
    EXPECT_FALSE(tlb.lookup(0x100, PageSize::Small4K, 2, 2).hit);
    EXPECT_FALSE(tlb.lookup(0x100, PageSize::Small4K, 1, 3).hit);
}

TEST(Tlb, SameVpnDifferentVmsCoexist)
{
    SetAssocTlb tlb(tinyTlb());
    tlb.insert(0x100, PageSize::Small4K, 1, 2, 0xA);
    tlb.insert(0x100, PageSize::Small4K, 2, 2, 0xB);
    EXPECT_EQ(tlb.lookup(0x100, PageSize::Small4K, 1, 2).pfn, 0xAu);
    EXPECT_EQ(tlb.lookup(0x100, PageSize::Small4K, 2, 2).pfn, 0xBu);
}

TEST(Tlb, LruEvictionWithinSet)
{
    SetAssocTlb tlb(tinyTlb());
    // VPNs 0, 4, 8, 12, 16 all map to set 0 (4 sets), vm 0.
    for (PageNum vpn = 0; vpn < 16; vpn += 4)
        tlb.insert(vpn, PageSize::Small4K, 0, 0, vpn + 100);
    tlb.insert(16, PageSize::Small4K, 0, 0, 116);
    // VPN 0 was least recently used and must be gone.
    EXPECT_FALSE(tlb.contains(0, PageSize::Small4K, 0, 0));
    EXPECT_TRUE(tlb.contains(16, PageSize::Small4K, 0, 0));
    EXPECT_EQ(tlb.validEntryCount(), 4u);
}

TEST(Tlb, ReinsertUpdatesPfnInPlace)
{
    SetAssocTlb tlb(tinyTlb());
    tlb.insert(0x100, PageSize::Small4K, 1, 2, 0x900);
    tlb.insert(0x100, PageSize::Small4K, 1, 2, 0x901);
    EXPECT_EQ(tlb.validEntryCount(), 1u);
    EXPECT_EQ(tlb.lookup(0x100, PageSize::Small4K, 1, 2).pfn, 0x901u);
}

TEST(Tlb, InvalidatePage)
{
    SetAssocTlb tlb(tinyTlb());
    tlb.insert(0x100, PageSize::Small4K, 1, 2, 0x900);
    EXPECT_TRUE(tlb.invalidatePage(0x100, PageSize::Small4K, 1, 2));
    EXPECT_FALSE(tlb.contains(0x100, PageSize::Small4K, 1, 2));
    EXPECT_FALSE(tlb.invalidatePage(0x100, PageSize::Small4K, 1, 2));
}

TEST(Tlb, VmShootdownDropsOnlyThatVm)
{
    SetAssocTlb tlb(tinyTlb());
    tlb.insert(0x100, PageSize::Small4K, 1, 2, 0xA);
    tlb.insert(0x101, PageSize::Small4K, 1, 2, 0xB);
    tlb.insert(0x100, PageSize::Small4K, 2, 2, 0xC);
    EXPECT_EQ(tlb.invalidateVm(1), 2u);
    EXPECT_FALSE(tlb.contains(0x100, PageSize::Small4K, 1, 2));
    EXPECT_TRUE(tlb.contains(0x100, PageSize::Small4K, 2, 2));
}

TEST(Tlb, FlushClearsEverything)
{
    SetAssocTlb tlb(tinyTlb());
    tlb.insert(0x100, PageSize::Small4K, 1, 2, 0xA);
    tlb.insert(0x200, PageSize::Large2M, 1, 2, 0xB);
    EXPECT_EQ(tlb.flush(), 2u);
    EXPECT_EQ(tlb.validEntryCount(), 0u);
}

TEST(Tlb, HitRateTracksLookups)
{
    SetAssocTlb tlb(tinyTlb());
    tlb.insert(0x100, PageSize::Small4K, 1, 2, 0xA);
    tlb.lookup(0x100, PageSize::Small4K, 1, 2);
    tlb.lookup(0x999, PageSize::Small4K, 1, 2);
    EXPECT_DOUBLE_EQ(tlb.hitRate(), 0.5);
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
    tlb.resetStats();
    EXPECT_EQ(tlb.hits(), 0u);
}

/**
 * Naive reference model of SetAssocTlb: each set is a list of valid
 * entries from least to most recently used, found by comparing every
 * field. The set index is the TLB's documented (vpn ^ vm) hash.
 */
class ReferenceTlb
{
  public:
    struct Entry
    {
        PageNum vpn = 0;
        PageSize size = PageSize::Small4K;
        VmId vm = 0;
        ProcessId pid = 0;
        PageNum pfn = 0;
    };

    ReferenceTlb(std::uint64_t sets, unsigned ways)
        : lists(sets), ways(ways)
    {
    }

    TlbLookupResult
    lookup(const Entry &key)
    {
        auto &set = setOf(key);
        const auto it = find(set, key);
        if (it == set.end()) {
            ++misses;
            return {};
        }
        const Entry entry = *it;
        set.erase(it);
        set.push_back(entry);
        ++hits;
        return {true, entry.pfn};
    }

    /** Insert; returns the entry displaced to make room, if any. */
    std::optional<Entry>
    insert(const Entry &entry)
    {
        auto &set = setOf(entry);
        ++insertions;
        std::optional<Entry> displaced;
        const auto it = find(set, entry);
        if (it != set.end()) {
            set.erase(it);
        } else if (set.size() == ways) {
            displaced = set.front();
            set.erase(set.begin());
            ++evictions;
        }
        set.push_back(entry);
        return displaced;
    }

    bool
    invalidatePage(const Entry &key)
    {
        auto &set = setOf(key);
        const auto it = find(set, key);
        if (it == set.end())
            return false;
        set.erase(it);
        ++shootdowns;
        return true;
    }

    std::uint64_t
    invalidateVm(VmId vm)
    {
        std::uint64_t dropped = 0;
        for (auto &set : lists) {
            const auto kept = std::remove_if(
                set.begin(), set.end(),
                [vm](const Entry &entry) { return entry.vm == vm; });
            dropped += static_cast<std::uint64_t>(
                std::distance(kept, set.end()));
            set.erase(kept, set.end());
        }
        shootdowns += dropped;
        return dropped;
    }

    std::uint64_t
    flush()
    {
        const std::uint64_t dropped = entries().size();
        for (auto &set : lists)
            set.clear();
        return dropped;
    }

    std::vector<Entry>
    entries() const
    {
        std::vector<Entry> all;
        for (const auto &set : lists)
            all.insert(all.end(), set.begin(), set.end());
        return all;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t shootdowns = 0;

  private:
    std::vector<Entry> &
    setOf(const Entry &key)
    {
        return lists[(key.vpn ^ key.vm) & (lists.size() - 1)];
    }

    static std::vector<Entry>::iterator
    find(std::vector<Entry> &set, const Entry &key)
    {
        return std::find_if(
            set.begin(), set.end(), [&](const Entry &entry) {
                return entry.vpn == key.vpn && entry.size == key.size &&
                       entry.vm == key.vm && entry.pid == key.pid;
            });
    }

    std::vector<std::vector<Entry>> lists;
    std::size_t ways;
};

TEST(Tlb, MatchesReferenceModelOnRandomStream)
{
    // Every set-block size class: blocks of 8 to 32 bytes sharing a
    // host line (1, 2, 4 ways), one line (8, 12), a line pair (16)
    // and three lines (32).
    for (const unsigned ways : {1u, 2u, 4u, 8u, 12u, 16u, 32u}) {
        SCOPED_TRACE(std::to_string(ways) + " ways");
        TlbConfig config = tinyTlb();
        config.associativity = ways;
        config.entries = 4 * ways; // 4 sets
        SetAssocTlb tlb(config);
        ReferenceTlb ref(config.numSets(), config.associativity);
        Rng rng(20170624);
        const auto counter = [&tlb](const char *name) {
            return tlb.stats().toJson().at(name).asUint();
        };
        const auto holds = [&tlb](const ReferenceTlb::Entry &entry) {
            return tlb.contains(entry.vpn, entry.size, entry.vm,
                                entry.pid);
        };

        // 2 x ways VPNs plus the largest, a few VMs and PIDs over 4
        // sets, so sets fill, evict and collide; VPN and PFN draws
        // include their maxima.
        std::vector<PageNum> vpns;
        for (PageNum vpn = 0; vpn < 2 * ways; ++vpn)
            vpns.push_back(vpn);
        vpns.push_back(TlbEntry::maxVpn);
        for (int op = 0; op < 20000; ++op) {
            ReferenceTlb::Entry key;
            key.vpn = vpns[rng.below(vpns.size())];
            key.size = rng.chance(0.5) ? PageSize::Small4K
                                       : PageSize::Large2M;
            key.vm = static_cast<VmId>(1 + rng.below(3));
            key.pid = static_cast<ProcessId>(rng.below(2) * 0xffff);
            const std::uint64_t draw = rng.below(1000);
            SCOPED_TRACE("op " + std::to_string(op));
            if (draw < 400) {
                key.pfn = rng.chance(0.1) ? TlbEntry::maxPfn
                                          : rng.below(1u << 20);
                tlb.insert(key.vpn, key.size, key.vm, key.pid,
                           key.pfn);
                const auto displaced = ref.insert(key);
                if (displaced) {
                    ASSERT_FALSE(holds(*displaced))
                        << "the LRU entry must be the one displaced";
                }
            } else if (draw < 850) {
                const TlbLookupResult got =
                    tlb.lookup(key.vpn, key.size, key.vm, key.pid);
                const TlbLookupResult want = ref.lookup(key);
                ASSERT_EQ(got.hit, want.hit);
                ASSERT_EQ(got.pfn, want.pfn);
            } else if (draw < 970) {
                ASSERT_EQ(tlb.invalidatePage(key.vpn, key.size,
                                             key.vm, key.pid),
                          ref.invalidatePage(key));
            } else if (draw < 995) {
                ASSERT_EQ(tlb.invalidateVm(key.vm),
                          ref.invalidateVm(key.vm));
            } else {
                ASSERT_EQ(tlb.flush(), ref.flush());
            }

            // Same valid entries, same counters.
            const auto entries = ref.entries();
            ASSERT_EQ(tlb.validEntryCount(), entries.size());
            for (const auto &entry : entries)
                ASSERT_TRUE(holds(entry)) << "vpn " << entry.vpn;
            ASSERT_EQ(tlb.hits(), ref.hits);
            ASSERT_EQ(tlb.misses(), ref.misses);
            ASSERT_EQ(counter("insertions"), ref.insertions);
            ASSERT_EQ(counter("evictions"), ref.evictions);
            ASSERT_EQ(counter("shootdowns"), ref.shootdowns);
        }
    }
}

TEST(TlbConfig, RejectsMoreWaysThanTheSetScanHolds)
{
    TlbConfig config = tinyTlb();
    config.associativity = 64;
    config.entries = 64;
    config.validate();
    config.associativity = 65;
    config.entries = 65;
    EXPECT_DEATH_IF_SUPPORTED(
        { config.validate(); },
        "tlb 'test': associativity 65 exceeds the 64-way set scan");
}

} // namespace
} // namespace pomtlb
