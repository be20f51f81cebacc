/**
 * @file
 * A set-associative SRAM TLB with VM-ID/ASID tagging and LRU
 * replacement.
 *
 * Used for the per-core L1 TLBs (one per page size), the unified
 * per-core L2 TLB, and the Shared_L2 baseline's large shared TLB.
 *
 * Hot-path layout: each set's scan state is one set block
 * (common/setscan.hh) — a 32-bit key digest per way, then one LRU
 * age byte per way — so the 12-way L2 TLB's 48 + 12 bytes fit one
 * 64 B host line. The 16-byte entries (tlb/entry.hh) live in a
 * separate array, so a hit or an insert touches one entry line.
 * Replacement is exact LRU from the ages (the Table 1 TLBs are all
 * LRU); an insert takes the first free way before the LRU one.
 */

#ifndef POMTLB_TLB_TLB_HH
#define POMTLB_TLB_TLB_HH

#include <string>
#include <vector>

#include "common/bitutil.hh"
#include "common/config.hh"
#include "common/setscan.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "tlb/entry.hh"

namespace pomtlb
{

/** Result of a TLB lookup. */
struct TlbLookupResult
{
    bool hit = false;
    /** Valid only on hit. */
    PageNum pfn = 0;
};

/** One level of set-associative SRAM TLB. */
class SetAssocTlb
{
  public:
    explicit SetAssocTlb(const TlbConfig &config);

    /** Look up (vpn, vm, pid) at @p size; updates LRU on hit. */
    TlbLookupResult lookup(PageNum vpn, PageSize size, VmId vm,
                           ProcessId pid);

    /** State-preserving membership check. */
    bool contains(PageNum vpn, PageSize size, VmId vm,
                  ProcessId pid) const;

    /** Install a translation, evicting the set's LRU entry if full. */
    void insert(PageNum vpn, PageSize size, VmId vm, ProcessId pid,
                PageNum pfn);

    /** Drop one page's translation (single-page shootdown). */
    bool invalidatePage(PageNum vpn, PageSize size, VmId vm,
                        ProcessId pid);

    /** Drop every entry belonging to @p vm (VM-wide shootdown). */
    std::uint64_t invalidateVm(VmId vm);

    /** Drop everything. */
    std::uint64_t flush();

    double hitRate() const;
    std::uint64_t hits() const { return hitCount.value(); }
    std::uint64_t misses() const { return missCount.value(); }
    std::uint64_t validEntryCount() const { return validEntries; }

    const TlbConfig &config() const { return tlbConfig; }
    const StatGroup &stats() const { return statGroup; }
    void resetStats();

  private:
    std::uint64_t setIndex(PageNum vpn, VmId vm) const;

    /**
     * Match key of a valid entry for the SIMD-friendly way scan: a
     * 32-bit digest of (vpn, vm, pid, size), forced non-zero so 0
     * can stand for an invalid way. The scan compares the set
     * block's key lane (common/setscan.hh) and then verifies
     * candidate ways against the full entry fields, so a digest
     * collision costs a compare, never a wrong hit.
     */
    static std::uint32_t
    entryKey(PageNum vpn, VmId vm, ProcessId pid, PageSize size)
    {
        const std::uint64_t packed =
            vpn ^ (static_cast<std::uint64_t>(vm) << 44) ^
            (static_cast<std::uint64_t>(pid) << 28) ^
            (static_cast<std::uint64_t>(
                 static_cast<unsigned>(size))
             << 60);
        return static_cast<std::uint32_t>(mix64(packed)) | 1;
    }

    /** The key lane (entryKey(); 0 = invalid way) of @p set. */
    std::uint32_t *
    keyLane(std::uint64_t set)
    {
        return reinterpret_cast<std::uint32_t *>(blocks.block(set));
    }
    /** The age lane (one LRU age byte per way) of @p set. */
    std::uint8_t *
    ageLane(std::uint64_t set)
    {
        return blocks.block(set) + 4 * ways;
    }

    /**
     * First way of @p set fully matching (vpn, vm, pid, size), or
     * the associativity when none does.
     */
    unsigned matchWay(std::uint64_t set, PageNum vpn, PageSize size,
                      VmId vm, ProcessId pid) const;

    /** Drop the valid entry at [@p set, @p way]. */
    void dropWay(std::uint64_t set, unsigned way);

    TlbConfig tlbConfig;
    std::uint64_t sets;
    unsigned ways;
    std::vector<TlbEntry> entries;
    /** One block per set: key lane, then age lane. */
    SetBlocks blocks;
    std::uint64_t validEntries = 0;

    Counter hitCount;
    Counter missCount;
    Counter insertions;
    Counter evictions;
    Counter shootdowns;
    StatGroup statGroup;
};

} // namespace pomtlb

#endif // POMTLB_TLB_TLB_HH
