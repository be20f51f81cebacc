/**
 * @file
 * The in-DRAM POM-TLB entry array: two 4-way associative partitions
 * (4 KB and 2 MB pages) whose replacement state is the 2-bit LRU field
 * carried in each entry's attribute byte (Section 2.2, "Entry
 * Replacement") — fetched with the set in a single 64 B burst, so the
 * victim choice costs no extra DRAM access.
 *
 * The array holds the entries themselves; DRAM timing lives in the
 * PomTlb device that wraps it.
 */

#ifndef POMTLB_POMTLB_ARRAY_HH
#define POMTLB_POMTLB_ARRAY_HH

#include "common/stats.hh"
#include "common/types.hh"
#include "common/zero_page_array.hh"
#include "pomtlb/addr_map.hh"
#include "tlb/entry.hh"

namespace pomtlb
{

/** Result of an associative search of one POM-TLB set. */
struct PomTlbArrayResult
{
    bool hit = false;
    PageNum pfn = 0;
};

/** Entry storage for one partition of the POM-TLB. */
class PomTlbPartition
{
  public:
    PomTlbPartition(std::string name, std::uint64_t sets,
                    unsigned ways);

    /** Associative search of set @p set; refreshes 2-bit LRU on hit. */
    PomTlbArrayResult lookup(std::uint64_t set, PageNum vpn, VmId vm,
                             ProcessId pid, PageSize size);

    /** Install a translation, evicting via the in-attr LRU bits. */
    void insert(std::uint64_t set, PageNum vpn, VmId vm, ProcessId pid,
                PageSize size, PageNum pfn);

    /** Drop one page's entry; true if found. */
    bool invalidatePage(std::uint64_t set, PageNum vpn, VmId vm,
                        ProcessId pid, PageSize size);

    /** Drop all entries of @p vm; returns the count. */
    std::uint64_t invalidateVm(VmId vm);

    /**
     * Hint the host to fetch set @p set's entry line ahead of a
     * search. No simulated state or statistic changes. Always
     * inlined: GCC drops calls to a function that only prefetches.
     */
    [[gnu::always_inline]] void
    prefetch(std::uint64_t set) const
    {
        __builtin_prefetch(&entries[set * ways]);
    }

    /** Lookups that matched an entry since the stats reset. */
    std::uint64_t hits() const { return hitCount.value(); }
    /** Lookups that matched no entry since the stats reset. */
    std::uint64_t misses() const { return missCount.value(); }
    /** Fraction of lookups that hit (0 when no lookups happened). */
    double hitRate() const;
    /** Entries currently valid in the array. */
    std::uint64_t validEntryCount() const { return validEntries; }
    /** Number of sets in this partition. */
    std::uint64_t setCount() const { return sets; }
    /** Zero all partition counters. */
    void resetStats();

    /** The partition's statistics group (named after the partition). */
    const StatGroup &stats() const { return statGroup; }

  private:
    /**
     * Set @p way's age to 0 and age every other way of the set by one
     * (saturating at 3), whether that way is valid or not. An invalid
     * way's age is never read: the fill that revalidates it resets it.
     */
    void makeYoungest(TlbEntry *base, unsigned way);

    std::string partitionName;
    std::uint64_t sets;
    unsigned ways;
    /** sets × ways entries, set-major; one 64 B line per 4-way set. */
    ZeroPageArray<TlbEntry> entries;
    std::uint64_t validEntries = 0;

    Counter hitCount;
    Counter missCount;
    Counter insertions;
    Counter evictions;
    StatGroup statGroup;
};

} // namespace pomtlb

#endif // POMTLB_POMTLB_ARRAY_HH
