/**
 * @file
 * Baseline scheme tests: the nested-walk MMU, Shared_L2, and TSB.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "baseline/nested_scheme.hh"
#include "baseline/shared_l2_scheme.hh"
#include "baseline/tsb_scheme.hh"
#include "sim/machine.hh"

namespace pomtlb
{
namespace
{

SystemConfig
twoCoreConfig()
{
    SystemConfig config = SystemConfig::table1();
    config.numCores = 2;
    return config;
}

TEST(NestedScheme, AlwaysWalks)
{
    Machine machine(twoCoreConfig(), "Baseline");
    auto &scheme = machine.scheme();
    const SchemeResult a =
        scheme.translateMiss(0, 0x1234000, PageSize::Small4K, 1, 1, 0);
    const SchemeResult b = scheme.translateMiss(
        0, 0x1234000, PageSize::Small4K, 1, 1, 1000);
    EXPECT_TRUE(a.walked);
    EXPECT_TRUE(b.walked);
    EXPECT_EQ(a.pfn, b.pfn);
    // Warm structures make the second walk cheaper.
    EXPECT_LT(b.cycles, a.cycles);
}

TEST(NestedScheme, StatsTrackWalks)
{
    Machine machine(twoCoreConfig(), "Baseline");
    auto *scheme =
        dynamic_cast<NestedWalkScheme *>(&machine.scheme());
    ASSERT_NE(scheme, nullptr);
    scheme->translateMiss(0, 0x1000000, PageSize::Small4K, 1, 1, 0);
    scheme->translateMiss(0, 0x2000000, PageSize::Small4K, 1, 1, 0);
    EXPECT_EQ(scheme->walkCount(), 2u);
    EXPECT_GT(scheme->avgWalkCycles(), 0.0);
    EXPECT_GT(scheme->avgWalkRefs(), 0.0);
    scheme->resetStats();
    EXPECT_EQ(scheme->walkCount(), 0u);
}

TEST(SharedL2, ProvidesSecondLevel)
{
    Machine machine(twoCoreConfig(), "Shared_L2");
    EXPECT_TRUE(machine.scheme().providesSecondLevel());
    // Cores therefore have no private L2 TLB.
    EXPECT_FALSE(machine.mmu(0).tlbs().hasPrivateL2());
}

TEST(SharedL2, SharedCapacityScalesWithCores)
{
    Machine machine(twoCoreConfig(), "Shared_L2");
    auto *scheme =
        dynamic_cast<SharedL2Scheme *>(&machine.scheme());
    ASSERT_NE(scheme, nullptr);
    EXPECT_EQ(scheme->tlb().config().entries, 2u * 1536);
}

TEST(SharedL2, MissWalksThenHits)
{
    Machine machine(twoCoreConfig(), "Shared_L2");
    auto *scheme =
        dynamic_cast<SharedL2Scheme *>(&machine.scheme());
    ASSERT_NE(scheme, nullptr);
    const SchemeResult miss = scheme->translateMiss(
        0, 0x1234000, PageSize::Small4K, 1, 1, 0);
    EXPECT_TRUE(miss.walked);
    const SchemeResult hit = scheme->translateMiss(
        0, 0x1234000, PageSize::Small4K, 1, 1, 1000);
    EXPECT_FALSE(hit.walked);
    // A shared-TLB hit costs exactly the shared access latency.
    EXPECT_EQ(hit.cycles, Cycles{24});
}

TEST(SharedL2, SharedAcrossCores)
{
    Machine machine(twoCoreConfig(), "Shared_L2");
    auto *scheme =
        dynamic_cast<SharedL2Scheme *>(&machine.scheme());
    ASSERT_NE(scheme, nullptr);
    scheme->translateMiss(0, 0x1234000, PageSize::Small4K, 1, 1, 0);
    // Same page from the other core: inter-core sharing hits.
    const SchemeResult other = scheme->translateMiss(
        1, 0x1234000, PageSize::Small4K, 1, 1, 1000);
    EXPECT_FALSE(other.walked);
    EXPECT_EQ(scheme->walkCount(), 1u);
}

TEST(Tsb, TrapCostAlwaysPaid)
{
    SystemConfig config = twoCoreConfig();
    Machine machine(config, "TSB");
    auto &scheme = machine.scheme();
    const SchemeResult hit_path = scheme.translateMiss(
        0, 0x1234000, PageSize::Small4K, 1, 1, 0);
    EXPECT_GE(hit_path.cycles, config.tsb.trapCycles);
}

TEST(Tsb, MissWalksThenHits)
{
    Machine machine(twoCoreConfig(), "TSB");
    auto *scheme = dynamic_cast<TsbScheme *>(&machine.scheme());
    ASSERT_NE(scheme, nullptr);
    const SchemeResult miss = scheme->translateMiss(
        0, 0x1234000, PageSize::Small4K, 1, 1, 0);
    EXPECT_TRUE(miss.walked);
    const SchemeResult hit = scheme->translateMiss(
        0, 0x1234000, PageSize::Small4K, 1, 1, 10000);
    EXPECT_FALSE(hit.walked);
    EXPECT_EQ(hit.pfn, miss.pfn);
    EXPECT_EQ(scheme->walkCount(), 1u);
    EXPECT_GT(scheme->tsbHitRate(), 0.0);
}

TEST(Tsb, DirectMappedConflictEvicts)
{
    Machine machine(twoCoreConfig(), "TSB");
    auto *scheme = dynamic_cast<TsbScheme *>(&machine.scheme());
    ASSERT_NE(scheme, nullptr);
    const std::uint64_t stage_entries =
        machine.config().tsb.capacityBytes /
        machine.config().tsb.entryBytes /
        machine.config().tsb.accessesPerTranslation;
    const Addr vaddr = 0x1234000;
    // A VPN exactly stage_entries apart collides in the
    // direct-mapped buffer (same vm, same pid).
    const Addr collider = vaddr + (stage_entries << smallPageShift);
    scheme->translateMiss(0, vaddr, PageSize::Small4K, 1, 1, 0);
    scheme->translateMiss(0, collider, PageSize::Small4K, 1, 1, 100);
    const SchemeResult again = scheme->translateMiss(
        0, vaddr, PageSize::Small4K, 1, 1, 20000);
    EXPECT_TRUE(again.walked);
}

TEST(Tsb, PrewarmFillsAllStages)
{
    Machine machine(twoCoreConfig(), "TSB");
    auto *scheme = dynamic_cast<TsbScheme *>(&machine.scheme());
    ASSERT_NE(scheme, nullptr);
    const Addr vaddr = 0x9999000;
    const TranslationInfo info = machine.memoryMap().ensureMapped(
        1, 1, vaddr, PageSize::Small4K);
    scheme->prewarm(0, vaddr, PageSize::Small4K, 1, 1,
                    info.hpa >> smallPageShift);
    const SchemeResult hit = scheme->translateMiss(
        0, vaddr, PageSize::Small4K, 1, 1, 0);
    EXPECT_FALSE(hit.walked);
}

TEST(Tsb, OversizedPfnFailsLoudly)
{
    Machine machine(twoCoreConfig(), "TSB");
    auto *scheme = dynamic_cast<TsbScheme *>(&machine.scheme());
    ASSERT_NE(scheme, nullptr);
    EXPECT_THROW(scheme->prewarm(0, 0x9999000, PageSize::Small4K, 1, 1,
                                 TlbEntry::maxPfn + 1),
                 std::logic_error);
    const SchemeResult miss = scheme->translateMiss(
        0, 0x9999000, PageSize::Small4K, 1, 1, 0);
    EXPECT_TRUE(miss.walked);
}

TEST(Tsb, VmShootdown)
{
    Machine machine(twoCoreConfig(), "TSB");
    auto *scheme = dynamic_cast<TsbScheme *>(&machine.scheme());
    ASSERT_NE(scheme, nullptr);
    scheme->translateMiss(0, 0x1234000, PageSize::Small4K, 1, 1, 0);
    scheme->invalidateVm(1);
    const SchemeResult after = scheme->translateMiss(
        0, 0x1234000, PageSize::Small4K, 1, 1, 10000);
    EXPECT_TRUE(after.walked);
}

} // namespace
} // namespace pomtlb
