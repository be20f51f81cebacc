/**
 * @file
 * POM-TLB partition tests: associative search, the 2-bit in-attr LRU
 * replacement of Section 2.2, and shootdowns; a differential test
 * against a field-per-member reference model; and the packed 16-byte
 * TlbEntry format.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "pomtlb/array.hh"

namespace pomtlb
{
namespace
{

TEST(PomArray, InsertLookup)
{
    PomTlbPartition part("p", 16, 4);
    part.insert(3, 0x100, 1, 2, PageSize::Small4K, 0x900);
    const PomTlbArrayResult hit =
        part.lookup(3, 0x100, 1, 2, PageSize::Small4K);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.pfn, 0x900u);
    EXPECT_EQ(part.validEntryCount(), 1u);
}

TEST(PomArray, MissOnWrongTag)
{
    PomTlbPartition part("p", 16, 4);
    part.insert(3, 0x100, 1, 2, PageSize::Small4K, 0x900);
    EXPECT_FALSE(part.lookup(3, 0x101, 1, 2, PageSize::Small4K).hit);
    EXPECT_FALSE(part.lookup(3, 0x100, 2, 2, PageSize::Small4K).hit);
    EXPECT_FALSE(part.lookup(3, 0x100, 1, 3, PageSize::Small4K).hit);
}

TEST(PomArray, FourWayCapacityPerSet)
{
    PomTlbPartition part("p", 16, 4);
    for (PageNum vpn = 0; vpn < 4; ++vpn)
        part.insert(0, vpn, 1, 1, PageSize::Small4K, vpn + 100);
    for (PageNum vpn = 0; vpn < 4; ++vpn)
        EXPECT_TRUE(part.lookup(0, vpn, 1, 1, PageSize::Small4K).hit);
    EXPECT_EQ(part.validEntryCount(), 4u);
}

TEST(PomArray, LruBitsPickOldestVictim)
{
    PomTlbPartition part("p", 16, 4);
    for (PageNum vpn = 0; vpn < 4; ++vpn)
        part.insert(0, vpn, 1, 1, PageSize::Small4K, vpn);
    // Touch 0 so it is youngest; 1 becomes the saturated-oldest.
    part.lookup(0, 0, 1, 1, PageSize::Small4K);
    part.insert(0, 99, 1, 1, PageSize::Small4K, 99);
    EXPECT_TRUE(part.lookup(0, 0, 1, 1, PageSize::Small4K).hit);
    EXPECT_FALSE(part.lookup(0, 1, 1, 1, PageSize::Small4K).hit);
    EXPECT_TRUE(part.lookup(0, 99, 1, 1, PageSize::Small4K).hit);
}

TEST(PomArray, ReinsertRefreshesInPlace)
{
    PomTlbPartition part("p", 16, 4);
    part.insert(0, 7, 1, 1, PageSize::Small4K, 10);
    part.insert(0, 7, 1, 1, PageSize::Small4K, 11);
    EXPECT_EQ(part.validEntryCount(), 1u);
    EXPECT_EQ(part.lookup(0, 7, 1, 1, PageSize::Small4K).pfn, 11u);
}

TEST(PomArray, InvalidatePage)
{
    PomTlbPartition part("p", 16, 4);
    part.insert(0, 7, 1, 1, PageSize::Small4K, 10);
    EXPECT_TRUE(part.invalidatePage(0, 7, 1, 1, PageSize::Small4K));
    EXPECT_FALSE(part.lookup(0, 7, 1, 1, PageSize::Small4K).hit);
    EXPECT_FALSE(part.invalidatePage(0, 7, 1, 1, PageSize::Small4K));
    EXPECT_EQ(part.validEntryCount(), 0u);
}

TEST(PomArray, InvalidateVm)
{
    PomTlbPartition part("p", 16, 4);
    part.insert(0, 7, 1, 1, PageSize::Small4K, 10);
    part.insert(1, 8, 1, 1, PageSize::Small4K, 11);
    part.insert(2, 9, 2, 1, PageSize::Small4K, 12);
    EXPECT_EQ(part.invalidateVm(1), 2u);
    EXPECT_EQ(part.validEntryCount(), 1u);
    EXPECT_TRUE(part.lookup(2, 9, 2, 1, PageSize::Small4K).hit);
}

TEST(PomArray, HitRateAndReset)
{
    PomTlbPartition part("p", 16, 4);
    part.insert(0, 7, 1, 1, PageSize::Small4K, 10);
    part.lookup(0, 7, 1, 1, PageSize::Small4K);
    part.lookup(0, 8, 1, 1, PageSize::Small4K);
    EXPECT_DOUBLE_EQ(part.hitRate(), 0.5);
    part.resetStats();
    EXPECT_EQ(part.hits(), 0u);
    EXPECT_EQ(part.misses(), 0u);
}

TEST(PomArray, MultiVmEntriesSameSet)
{
    // Section 5.2: the large TLB retains translations of many VMs.
    PomTlbPartition part("p", 16, 4);
    for (VmId vm = 1; vm <= 4; ++vm)
        part.insert(5, 0x42, vm, 1, PageSize::Small4K, vm * 10);
    for (VmId vm = 1; vm <= 4; ++vm) {
        const PomTlbArrayResult hit =
            part.lookup(5, 0x42, vm, 1, PageSize::Small4K);
        EXPECT_TRUE(hit.hit);
        EXPECT_EQ(hit.pfn, static_cast<PageNum>(vm) * 10);
    }
}

/**
 * The partition's semantics spelled out over one struct member per
 * field and a separate 2-bit age: first matching way hits, a hit or
 * fill makes its way youngest and ages every other way of the set
 * (valid or not, saturating at 3), a fill takes the first invalid
 * way, else the last way of the highest age.
 */
class ReferencePartition
{
  public:
    ReferencePartition(std::uint64_t sets, unsigned ways)
        : ways(ways), entries(sets * ways)
    {
    }

    PomTlbArrayResult
    lookup(std::uint64_t set, PageNum vpn, VmId vm, ProcessId pid,
           PageSize size)
    {
        const int way = find(set, vpn, vm, pid, size);
        if (way < 0) {
            ++misses;
            return {};
        }
        makeYoungest(set, static_cast<unsigned>(way));
        ++hits;
        return {true, at(set, way).pfn};
    }

    void
    insert(std::uint64_t set, PageNum vpn, VmId vm, ProcessId pid,
           PageSize size, PageNum pfn)
    {
        ++insertions;
        const int found = find(set, vpn, vm, pid, size);
        if (found >= 0) {
            at(set, found).pfn = pfn;
            makeYoungest(set, static_cast<unsigned>(found));
            return;
        }
        int target = -1;
        for (unsigned way = 0; way < ways && target < 0; ++way) {
            if (!at(set, way).valid)
                target = static_cast<int>(way);
        }
        if (target < 0) {
            unsigned oldest = 0;
            for (unsigned way = 0; way < ways; ++way) {
                if (at(set, way).age >= oldest) {
                    oldest = at(set, way).age;
                    target = static_cast<int>(way);
                }
            }
            ++evictions;
            --valid;
        }
        Entry &entry = at(set, target);
        entry.valid = true;
        entry.vm = vm;
        entry.pid = pid;
        entry.vpn = vpn;
        entry.pfn = pfn;
        entry.size = size;
        ++valid;
        makeYoungest(set, static_cast<unsigned>(target));
    }

    bool
    invalidatePage(std::uint64_t set, PageNum vpn, VmId vm,
                   ProcessId pid, PageSize size)
    {
        const int way = find(set, vpn, vm, pid, size);
        if (way < 0)
            return false;
        at(set, way).valid = false;
        --valid;
        return true;
    }

    std::uint64_t
    invalidateVm(VmId vm)
    {
        std::uint64_t dropped = 0;
        for (Entry &entry : entries) {
            if (entry.valid && entry.vm == vm) {
                entry.valid = false;
                ++dropped;
            }
        }
        valid -= dropped;
        return dropped;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t valid = 0;

  private:
    struct Entry
    {
        bool valid = false;
        VmId vm = 0;
        ProcessId pid = 0;
        PageNum vpn = 0;
        PageNum pfn = 0;
        PageSize size = PageSize::Small4K;
        unsigned age = 0;
    };

    Entry &
    at(std::uint64_t set, int way)
    {
        return entries[set * ways + static_cast<unsigned>(way)];
    }

    int
    find(std::uint64_t set, PageNum vpn, VmId vm, ProcessId pid,
         PageSize size)
    {
        for (unsigned way = 0; way < ways; ++way) {
            const Entry &e = at(set, static_cast<int>(way));
            if (e.valid && e.vpn == vpn && e.vm == vm && e.pid == pid &&
                e.size == size)
                return static_cast<int>(way);
        }
        return -1;
    }

    void
    makeYoungest(std::uint64_t set, unsigned way)
    {
        for (unsigned w = 0; w < ways; ++w) {
            unsigned &age = at(set, static_cast<int>(w)).age;
            if (w == way)
                age = 0;
            else if (age < 3)
                ++age;
        }
    }

    unsigned ways;
    std::vector<Entry> entries;
};

/** The partition's counters by name. */
std::map<std::string, double>
counters(const PomTlbPartition &part)
{
    std::vector<std::pair<std::string, double>> flat;
    part.stats().collect(flat);
    return {flat.begin(), flat.end()};
}

TEST(PomArray, MatchesReferenceModelOnRandomStream)
{
    constexpr std::uint64_t sets = 4;
    PomTlbPartition part("p", sets, 4);
    ReferencePartition ref(sets, 4);
    Rng rng(20170624);

    // Few sets, VMs, PIDs and pages so ways fill, evict and collide;
    // VPN and PFN draws include their field maxima.
    const PageNum vpns[] = {0, 1, 2, 3, 4, 5, 6, 7, TlbEntry::maxVpn};
    for (int op = 0; op < 20000; ++op) {
        const std::uint64_t set = rng.below(sets);
        const PageNum vpn = vpns[rng.below(std::size(vpns))];
        const VmId vm = static_cast<VmId>(1 + rng.below(3));
        const auto pid = static_cast<ProcessId>(rng.below(2) * 0xffff);
        const PageSize size =
            rng.chance(0.5) ? PageSize::Small4K : PageSize::Large2M;
        const std::uint64_t kind = rng.below(100);
        SCOPED_TRACE("op " + std::to_string(op));
        if (kind < 40) {
            const PageNum pfn =
                rng.chance(0.1) ? TlbEntry::maxPfn : rng.below(1u << 20);
            part.insert(set, vpn, vm, pid, size, pfn);
            ref.insert(set, vpn, vm, pid, size, pfn);
        } else if (kind < 85) {
            const PomTlbArrayResult got =
                part.lookup(set, vpn, vm, pid, size);
            const PomTlbArrayResult want =
                ref.lookup(set, vpn, vm, pid, size);
            ASSERT_EQ(got.hit, want.hit);
            ASSERT_EQ(got.pfn, want.pfn);
        } else if (kind < 98) {
            ASSERT_EQ(part.invalidatePage(set, vpn, vm, pid, size),
                      ref.invalidatePage(set, vpn, vm, pid, size));
        } else {
            ASSERT_EQ(part.invalidateVm(vm), ref.invalidateVm(vm));
        }
        const auto stats = counters(part);
        ASSERT_EQ(part.validEntryCount(), ref.valid);
        ASSERT_EQ(part.hits(), ref.hits);
        ASSERT_EQ(part.misses(), ref.misses);
        ASSERT_EQ(stats.at("p.insertions"), ref.insertions);
        ASSERT_EQ(stats.at("p.evictions"), ref.evictions);
    }
    // The stream must have exercised every path.
    EXPECT_GT(ref.hits, 0u);
    EXPECT_GT(ref.evictions, 0u);
}

TEST(TlbEntryFormat, FieldsRoundTripAtTheirMaxima)
{
    TlbEntry entry;
    entry.setAttr(0xa5);
    entry.set(TlbEntry::maxVpn, 0xffff, 0xffff, PageSize::Large2M,
              TlbEntry::maxPfn);
    EXPECT_TRUE(entry.valid());
    EXPECT_EQ(entry.vpn(), (PageNum{1} << 52) - 1);
    EXPECT_EQ(entry.pfn(), (PageNum{1} << 32) - 1);
    EXPECT_EQ(entry.vmId(), 0xffff);
    EXPECT_EQ(entry.pid(), 0xffff);
    EXPECT_EQ(entry.pageSize(), PageSize::Large2M);
    EXPECT_EQ(entry.attr(), 0xa5);
    EXPECT_TRUE(entry.matches(TlbEntry::maxVpn, 0xffff, 0xffff,
                              PageSize::Large2M));

    // Each field is independent of its neighbours.
    entry.set(0, 0, 0, PageSize::Small4K, 0);
    EXPECT_EQ(entry.vpn(), 0u);
    EXPECT_EQ(entry.pfn(), 0u);
    EXPECT_EQ(entry.vmId(), 0);
    EXPECT_EQ(entry.pid(), 0);
    EXPECT_EQ(entry.pageSize(), PageSize::Small4K);
    EXPECT_EQ(entry.attr(), 0xa5);
    entry.setPfn(TlbEntry::maxPfn);
    EXPECT_EQ(entry.pfn(), TlbEntry::maxPfn);
    EXPECT_TRUE(entry.matches(0, 0, 0, PageSize::Small4K));

    EXPECT_TRUE(TlbEntry::fits(TlbEntry::maxVpn, TlbEntry::maxPfn));
    EXPECT_FALSE(TlbEntry::fits(TlbEntry::maxVpn + 1, 0));
    EXPECT_FALSE(TlbEntry::fits(0, TlbEntry::maxPfn + 1));
}

TEST(TlbEntryFormat, ZeroBytesAreAnInvalidEntry)
{
    TlbEntry entry;
    entry.set(5, 1, 2, PageSize::Large2M, 9);
    const unsigned char zeros[sizeof(TlbEntry)] = {};
    std::memcpy(&entry, zeros, sizeof(entry));
    EXPECT_FALSE(entry.valid());
    EXPECT_FALSE(entry.matches(0, 0, 0, PageSize::Small4K));
    EXPECT_FALSE(entry.validInVm(0));

    // Invalidation keeps the other fields but no longer matches.
    entry.set(5, 1, 2, PageSize::Small4K, 9);
    entry.invalidate();
    EXPECT_FALSE(entry.matches(5, 1, 2, PageSize::Small4K));
    EXPECT_FALSE(entry.validInVm(1));
    EXPECT_EQ(entry.pfn(), 9u);
}

TEST(TlbEntryFormat, AttrBitsDoNotAffectMatching)
{
    TlbEntry entry;
    entry.set(0x1234, 3, 4, PageSize::Small4K, 0x99);
    for (unsigned attr = 0; attr < 256; ++attr) {
        entry.setAttr(static_cast<std::uint8_t>(attr));
        EXPECT_TRUE(entry.matches(0x1234, 3, 4, PageSize::Small4K));
        EXPECT_FALSE(entry.matches(0x1234, 3, 4, PageSize::Large2M));
        EXPECT_FALSE(entry.matches(0x1235, 3, 4, PageSize::Small4K));
        EXPECT_FALSE(entry.matches(0x1234, 2, 4, PageSize::Small4K));
        EXPECT_FALSE(entry.matches(0x1234, 3, 5, PageSize::Small4K));
        EXPECT_TRUE(entry.validInVm(3));
        EXPECT_FALSE(entry.validInVm(4));
    }
}

TEST(TlbEntryFormat, PfnIsPayloadNotTag)
{
    // The PFN is payload, not tag: entries differing only in PFN
    // match the same lookups.
    TlbEntry a;
    TlbEntry b;
    a.set(7, 1, 1, PageSize::Small4K, 0);
    b.set(7, 1, 1, PageSize::Small4K, TlbEntry::maxPfn);
    EXPECT_TRUE(a.matches(7, 1, 1, PageSize::Small4K));
    EXPECT_TRUE(b.matches(7, 1, 1, PageSize::Small4K));
}

TEST(PomArray, OversizedFieldsFailLoudly)
{
    // A PFN or VPN too wide for its field panics; it is never
    // truncated into a wrong translation.
    PomTlbPartition part("p", 16, 4);
    EXPECT_THROW(
        part.insert(0, 1, 1, 1, PageSize::Small4K, TlbEntry::maxPfn + 1),
        std::logic_error);
    EXPECT_THROW(part.insert(0, TlbEntry::maxVpn + 1, 1, 1,
                             PageSize::Small4K, 1),
                 std::logic_error);
    EXPECT_EQ(part.validEntryCount(), 0u);
}

} // namespace
} // namespace pomtlb
