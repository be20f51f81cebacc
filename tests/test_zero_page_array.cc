/**
 * @file
 * ZeroPageArray tests: elements start as zero, moves transfer the
 * mapping, and host memory is only spent on pages that are written —
 * checked on a Table-1 POM-TLB, whose 16 MB of entries must not be
 * resident after construction.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <utility>

#include "common/zero_page_array.hh"
#include "pomtlb/pom_tlb.hh"

namespace pomtlb
{
namespace
{

TEST(ZeroPageArray, ElementsStartAsInvalidEntries)
{
    ZeroPageArray<TlbEntry> array(1000);
    ASSERT_EQ(array.size(), 1000u);
    for (const TlbEntry &entry : array) {
        EXPECT_EQ(entry.key, 0u);
        EXPECT_EQ(entry.data, 0u);
        EXPECT_FALSE(entry.valid());
    }
    array[999].set(1, 2, 3, PageSize::Small4K, 4);
    EXPECT_TRUE(array[999].matches(1, 2, 3, PageSize::Small4K));
}

TEST(ZeroPageArray, MoveTransfersTheMapping)
{
    ZeroPageArray<TlbEntry> a(16);
    a[3].set(7, 1, 1, PageSize::Large2M, 9);
    ZeroPageArray<TlbEntry> b(std::move(a));
    EXPECT_EQ(a.size(), 0u);
    EXPECT_EQ(a.begin(), a.end());
    ASSERT_EQ(b.size(), 16u);
    EXPECT_EQ(b[3].pfn(), 9u);

    ZeroPageArray<TlbEntry> c(4);
    c = std::move(b);
    EXPECT_EQ(b.size(), 0u);
    ASSERT_EQ(c.size(), 16u);
    EXPECT_EQ(c[3].pfn(), 9u);
}

TEST(ZeroPageArray, EmptyArrayHasNoElements)
{
    ZeroPageArray<TlbEntry> empty;
    EXPECT_EQ(empty.size(), 0u);
    EXPECT_EQ(empty.begin(), empty.end());
    ZeroPageArray<TlbEntry> zero(0);
    EXPECT_EQ(zero.size(), 0u);
}

#ifdef __linux__
/**
 * Resident set size of this process in kB. Read from smaps_rollup,
 * which walks the page tables and is exact; VmRSS in /proc/self/status
 * is a per-CPU batched counter that may lag by hundreds of kB, more
 * than the one-page steps checked here. Returns -1 when unavailable.
 */
long
residentKb()
{
    std::FILE *file = std::fopen("/proc/self/smaps_rollup", "r");
    if (!file)
        return -1;
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof(line), file)) {
        if (std::sscanf(line, "Rss: %ld kB", &kb) == 1)
            break;
    }
    std::fclose(file);
    return kb;
}
#endif

TEST(PomTlbFootprint, OnlyWrittenSetsAreResident)
{
#ifndef __linux__
    GTEST_SKIP() << "needs /proc/self/smaps_rollup";
#else
    if (residentKb() < 0)
        GTEST_SKIP() << "/proc/self/smaps_rollup is not readable";

    PomTlbConfig config; // Table 1: 16 MB of 16-byte entries
    config.validate();
    DramConfig die = DramConfig::dieStacked();
    die.coreFreqGhz = 4.0;
    DramController dram(die);

    const long before = residentKb();
    PomTlb pom(config, dram);
    const long built = residentKb();
    // The entry storage alone is 16 MB; none of it may be resident.
    EXPECT_LT(built - before, 2 * 1024)
        << "constructing the POM-TLB made its entries resident";

    // Reading never-written sets maps no memory either.
    for (Addr page = 0; page < 4096; ++page)
        pom.searchSet(page << 21, 1, 1, PageSize::Large2M);
    const long searched = residentKb();
    EXPECT_LT(searched - built, 64);

    // One written set costs one host page of entries.
    pom.installUntimed(0x40000000, 1, 1, PageSize::Small4K, 0x1234);
    const long written = residentKb();
    EXPECT_LE(written - searched, 4 * 4)
        << "writing one set made more than a few pages resident";
    EXPECT_TRUE(
        pom.searchSet(0x40000000, 1, 1, PageSize::Small4K).hit);
#endif
}

} // namespace
} // namespace pomtlb
