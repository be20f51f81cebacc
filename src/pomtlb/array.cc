#include "pomtlb/array.hh"

#include "common/log.hh"
#include "pagetable/memory_map.hh"

namespace pomtlb
{

// Every host PFN of the default host-physical space fits the entry's
// PFN field; larger configured spaces are caught by the insert checks.
static_assert((MemoryMapConfig{}.hostPhysBytes >> smallPageShift) - 1 <=
                  TlbEntry::maxPfn,
              "default host-physical space exceeds the 32-bit PFN field");

namespace
{
/** The attribute byte's low two bits hold the entry's LRU age. */
constexpr std::uint64_t lruMask = std::uint64_t{0x3}
                                  << TlbEntry::attrShift;
constexpr std::uint64_t lruOne = std::uint64_t{1} << TlbEntry::attrShift;

/** An entry's 2-bit LRU age, in place in its key word. */
std::uint64_t
lruAge(const TlbEntry &entry)
{
    return entry.key & lruMask;
}
} // namespace

PomTlbPartition::PomTlbPartition(std::string name, std::uint64_t set_count,
                                 unsigned way_count)
    : partitionName(std::move(name)),
      sets(set_count),
      ways(way_count),
      entries(set_count * way_count),
      statGroup(partitionName)
{
    simAssert(set_count > 0 && way_count > 0,
              "POM-TLB partition needs sets and ways");
    statGroup.addCounter("hits", hitCount);
    statGroup.addCounter("misses", missCount);
    statGroup.addCounter("insertions", insertions);
    statGroup.addCounter("evictions", evictions);
    statGroup.addDerived("hit_rate", [this] { return hitRate(); });
    statGroup.addDerived("valid_entries", [this] {
        return static_cast<double>(validEntries);
    });
}

void
PomTlbPartition::makeYoungest(TlbEntry *base, unsigned way)
{
    for (unsigned w = 0; w < ways; ++w) {
        if (w == way)
            base[w].key &= ~lruMask;
        else if (lruAge(base[w]) != lruMask)
            base[w].key += lruOne;
    }
}

PomTlbArrayResult
PomTlbPartition::lookup(std::uint64_t set, PageNum vpn, VmId vm,
                        ProcessId pid, PageSize size)
{
    simAssert(set < sets, "POM-TLB set index out of range");
    TlbEntry *base = &entries[set * ways];
    for (unsigned way = 0; way < ways; ++way) {
        if (base[way].matches(vpn, vm, pid, size)) {
            makeYoungest(base, way);
            ++hitCount;
            return {true, base[way].pfn()};
        }
    }
    ++missCount;
    return {};
}

void
PomTlbPartition::insert(std::uint64_t set, PageNum vpn, VmId vm,
                        ProcessId pid, PageSize size, PageNum pfn)
{
    simAssert(set < sets, "POM-TLB set index out of range");
    simAssert(TlbEntry::fits(vpn, pfn), "POM-TLB entry vpn ", vpn,
              " or pfn ", pfn, " does not fit the 16-byte entry");
    TlbEntry *base = &entries[set * ways];
    ++insertions;

    // Refresh in place when present.
    for (unsigned way = 0; way < ways; ++way) {
        if (base[way].matches(vpn, vm, pid, size)) {
            base[way].setPfn(pfn);
            makeYoungest(base, way);
            return;
        }
    }

    unsigned target = ways;
    for (unsigned way = 0; way < ways; ++way) {
        if (!base[way].valid()) {
            target = way;
            break;
        }
    }
    if (target == ways) {
        // Evict the oldest entry per the in-attr LRU bits.
        std::uint64_t oldest_age = 0;
        target = 0;
        for (unsigned way = 0; way < ways; ++way) {
            const std::uint64_t age = lruAge(base[way]);
            if (age >= oldest_age) {
                oldest_age = age;
                target = way;
            }
        }
        ++evictions;
        --validEntries;
    }

    base[target].set(vpn, vm, pid, size, pfn);
    ++validEntries;
    makeYoungest(base, target);
}

bool
PomTlbPartition::invalidatePage(std::uint64_t set, PageNum vpn, VmId vm,
                                ProcessId pid, PageSize size)
{
    simAssert(set < sets, "POM-TLB set index out of range");
    TlbEntry *base = &entries[set * ways];
    for (unsigned way = 0; way < ways; ++way) {
        if (base[way].matches(vpn, vm, pid, size)) {
            base[way].invalidate();
            --validEntries;
            return true;
        }
    }
    return false;
}

std::uint64_t
PomTlbPartition::invalidateVm(VmId vm)
{
    std::uint64_t dropped = 0;
    for (TlbEntry &entry : entries) {
        if (entry.validInVm(vm)) {
            entry.invalidate();
            ++dropped;
        }
    }
    validEntries -= dropped;
    return dropped;
}

double
PomTlbPartition::hitRate() const
{
    const std::uint64_t total = hitCount.value() + missCount.value();
    return total ? static_cast<double>(hitCount.value()) / total : 0.0;
}

void
PomTlbPartition::resetStats()
{
    hitCount.reset();
    missCount.reset();
    insertions.reset();
    evictions.reset();
}

} // namespace pomtlb
