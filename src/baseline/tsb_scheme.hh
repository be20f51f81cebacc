/**
 * @file
 * The SPARC-style Translation Storage Buffer baseline (Section 3.3).
 *
 * On an L2 TLB miss the hardware traps to software; the handler
 * probes a large software-allocated buffer in main memory. Compared
 * to the POM-TLB the TSB pays: (a) the trap entry/exit cost on every
 * miss, (b) a direct-mapped organisation (more conflict misses), and
 * (c) entries that are not direct guest-VA-to-host-PA translations,
 * so completing one translation takes multiple buffer accesses.
 * The handler's loads are ordinary software loads and therefore do
 * travel through the data caches.
 */

#ifndef POMTLB_BASELINE_TSB_SCHEME_HH
#define POMTLB_BASELINE_TSB_SCHEME_HH

#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "common/zero_page_array.hh"
#include "pagetable/walker.hh"
#include "sim/scheme.hh"
#include "tlb/entry.hh"

namespace pomtlb
{

/** Software-managed TSB baseline. */
class TsbScheme : public TranslationScheme
{
  public:
    /**
     * @param config    TSB capacity, trap cost, accesses per
     *                  translation.
     * @param base_addr Host-physical base the buffer is allocated at.
     * @param hierarchy Data caches the handler's loads go through.
     * @param walkers   Per-core walkers for TSB misses.
     */
    TsbScheme(const TsbConfig &config, Addr base_addr,
              DataHierarchy &hierarchy,
              std::vector<std::unique_ptr<PageWalker>> &walkers);

    std::string name() const override { return "TSB"; }

    SchemeResult translateMiss(CoreId core, Addr vaddr, PageSize size,
                               VmId vm, ProcessId pid,
                               Cycles now) override;

    void prewarm(CoreId core, Addr vaddr, PageSize size, VmId vm,
                 ProcessId pid, PageNum pfn) override;

    void invalidatePage(Addr vaddr, PageSize size, VmId vm,
                        ProcessId pid) override;
    void invalidateVm(VmId vm) override;
    void resetStats() override;

    const StatGroup *statistics() const override
    {
        return &statGroup;
    }
    std::vector<std::pair<ServicePoint, std::uint64_t>>
    cycleBreakdown() const override;

    /** Fraction of requests the buffer completed without a walk. */
    double tsbHitRate() const;
    /** Walks performed (buffer misses) since the stats reset. */
    std::uint64_t walkCount() const { return walks.value(); }
    /** Mean scheme cycles per request. */
    double avgMissCycles() const { return missCycles.mean(); }

  private:
    /** Index into one of the buffer's stages for @p vpn. */
    std::uint64_t indexOf(PageNum vpn, VmId vm, ProcessId pid) const;
    /** Host-physical address of a stage slot (for cache timing). */
    Addr slotAddr(unsigned stage, std::uint64_t index) const;
    /** The buffer entry of a stage slot. */
    TlbEntry &
    slot(unsigned stage, std::uint64_t index)
    {
        return stages[stage * stageEntries + index];
    }
    /** Write (vpn, vm, pid, size) → pfn into every stage at @p index. */
    void fill(std::uint64_t index, PageNum vpn, VmId vm, ProcessId pid,
              PageSize size, PageNum pfn);

    TsbConfig tsbConfig;
    Addr baseAddr;
    DataHierarchy &dataHierarchy;
    std::vector<std::unique_ptr<PageWalker>> &pageWalkers;

    /** Entries per stage (direct-mapped). */
    std::uint64_t stageEntries;
    /**
     * The buffer content, one direct-mapped array per stage laid out
     * stage after stage (slot(), matching slotAddr()); a translation
     * completes only when every stage matches, modelling the
     * multi-access indirect format of real TSB entries.
     */
    ZeroPageArray<TlbEntry> stages;

    Counter hits;
    Counter misses;
    Counter walks;
    /** Cycles of requests the buffer itself completed. */
    Counter tsbHitCycles;
    /** Cycles of requests that fell through to a page walk. */
    Counter walkPathCycles;
    Average missCycles;
    Log2Histogram missCycleHist;
    StatGroup statGroup;
};

} // namespace pomtlb

#endif // POMTLB_BASELINE_TSB_SCHEME_HH
