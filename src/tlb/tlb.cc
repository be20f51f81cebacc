#include "tlb/tlb.hh"

#include "common/bitutil.hh"
#include "common/log.hh"
#include "common/setscan.hh"

namespace pomtlb
{

namespace
{
/** @p config, after validate() has accepted it. */
const TlbConfig &
validated(const TlbConfig &config)
{
    config.validate();
    return config;
}
} // namespace

SetAssocTlb::SetAssocTlb(const TlbConfig &config)
    : tlbConfig(validated(config)),
      sets(config.numSets()),
      ways(config.associativity),
      entries(config.entries),
      blocks(config.numSets(), 5 * config.associativity),
      statGroup(config.name)
{
    statGroup.addCounter("hits", hitCount);
    statGroup.addCounter("misses", missCount);
    statGroup.addCounter("insertions", insertions);
    statGroup.addCounter("evictions", evictions);
    statGroup.addCounter("shootdowns", shootdowns);
    statGroup.addDerived("hit_rate", [this] { return hitRate(); });
}

std::uint64_t
SetAssocTlb::setIndex(PageNum vpn, VmId vm) const
{
    // XOR the VM ID in so multiple VMs spread across sets, mirroring
    // the POM-TLB's set hash (Equation 1).
    return (vpn ^ vm) & (sets - 1);
}

unsigned
SetAssocTlb::matchWay(std::uint64_t set, PageNum vpn, PageSize size,
                      VmId vm, ProcessId pid) const
{
    // SIMD-friendly probe: one compare pass over the set block's
    // key lane, then full-field verification of each candidate in
    // way order (a digest collision must not manufacture a hit, and
    // the lowest truly-matching way must win).
    std::uint64_t mask = findKeyMask(
        reinterpret_cast<const std::uint32_t *>(blocks.block(set)),
        ways, entryKey(vpn, vm, pid, size));
    const TlbEntry *base = &entries[set * ways];
    while (mask != 0) {
        const unsigned way =
            static_cast<unsigned>(std::countr_zero(mask));
        if (base[way].matches(vpn, vm, pid, size))
            return way;
        mask &= mask - 1;
    }
    return ways;
}

TlbLookupResult
SetAssocTlb::lookup(PageNum vpn, PageSize size, VmId vm, ProcessId pid)
{
    const std::uint64_t set = setIndex(vpn, vm);
    const unsigned way = matchWay(set, vpn, size, vm, pid);
    if (way != ways) {
        touchAge(ageLane(set), ways, way);
        ++hitCount;
        return {true, entries[set * ways + way].pfn()};
    }
    ++missCount;
    return {};
}

bool
SetAssocTlb::contains(PageNum vpn, PageSize size, VmId vm,
                      ProcessId pid) const
{
    const std::uint64_t set = setIndex(vpn, vm);
    return matchWay(set, vpn, size, vm, pid) != ways;
}

void
SetAssocTlb::insert(PageNum vpn, PageSize size, VmId vm, ProcessId pid,
                    PageNum pfn)
{
    simAssert(TlbEntry::fits(vpn, pfn), config().name, ": vpn ", vpn,
              " or pfn ", pfn, " does not fit the 16-byte entry");
    const std::uint64_t set = setIndex(vpn, vm);
    const std::uint64_t base_index = set * ways;
    TlbEntry *base = &entries[base_index];
    ++insertions;

    // Fixed-trip scans over the set block (common/setscan.hh): a
    // matching entry refreshes in place (a duplicate fill), else the
    // first free way (key 0) wins, else the LRU way (age 0). A full
    // set's ways were all touched when inserted, so exactly one of
    // them is aged 0.
    const unsigned match = matchWay(set, vpn, size, vm, pid);
    std::uint8_t *ages = ageLane(set);
    if (match != ways) {
        base[match].setPfn(pfn);
        touchAge(ages, ways, match);
        return;
    }

    std::uint32_t *keys = keyLane(set);
    unsigned target = findKeyWay(keys, ways, std::uint32_t{0});
    if (target == ways) {
        target = findKeyWay(ages, ways, std::uint8_t{0});
        ++evictions;
        --validEntries;
    }

    base[target].set(vpn, vm, pid, size, pfn);
    keys[target] = entryKey(vpn, vm, pid, size);
    ++validEntries;
    touchAge(ages, ways, target);
}

void
SetAssocTlb::dropWay(std::uint64_t set, unsigned way)
{
    entries[set * ways + way].invalidate();
    keyLane(set)[way] = 0;
    --validEntries;
}

bool
SetAssocTlb::invalidatePage(PageNum vpn, PageSize size, VmId vm,
                            ProcessId pid)
{
    const std::uint64_t set = setIndex(vpn, vm);
    const unsigned way = matchWay(set, vpn, size, vm, pid);
    if (way == ways)
        return false;
    dropWay(set, way);
    ++shootdowns;
    return true;
}

std::uint64_t
SetAssocTlb::invalidateVm(VmId vm)
{
    std::uint64_t dropped = 0;
    for (std::uint64_t set = 0; set < sets; ++set) {
        TlbEntry *base = &entries[set * ways];
        for (unsigned way = 0; way < ways; ++way) {
            if (base[way].validInVm(vm)) {
                dropWay(set, way);
                ++dropped;
            }
        }
    }
    shootdowns.increment(dropped);
    return dropped;
}

std::uint64_t
SetAssocTlb::flush()
{
    std::uint64_t dropped = 0;
    for (std::uint64_t set = 0; set < sets; ++set) {
        TlbEntry *base = &entries[set * ways];
        for (unsigned way = 0; way < ways; ++way) {
            if (base[way].valid()) {
                dropWay(set, way);
                ++dropped;
            }
        }
    }
    return dropped;
}

double
SetAssocTlb::hitRate() const
{
    const std::uint64_t total = hitCount.value() + missCount.value();
    return total ? static_cast<double>(hitCount.value()) / total : 0.0;
}

void
SetAssocTlb::resetStats()
{
    hitCount.reset();
    missCount.reset();
    insertions.reset();
    evictions.reset();
    shootdowns.reset();
}

} // namespace pomtlb
