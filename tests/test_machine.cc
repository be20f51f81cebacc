/**
 * @file
 * Machine-assembly tests: scheme wiring, configuration scaling, and
 * whole-machine shootdown.
 */

#include <gtest/gtest.h>

#include "sim/machine.hh"

namespace pomtlb
{
namespace
{

TEST(Machine, BuildsAllPaperSchemes)
{
    SystemConfig config = SystemConfig::table1();
    config.numCores = 2;
    for (const std::string scheme :
         {"Baseline", "POM-TLB", "Shared_L2", "TSB"}) {
        Machine machine(config, scheme);
        EXPECT_EQ(machine.schemeName(), scheme);
        EXPECT_EQ(machine.numCores(), 2u);
    }
}

TEST(Machine, PomDeviceOnlyForPomScheme)
{
    SystemConfig config = SystemConfig::table1();
    config.numCores = 1;
    Machine pom(config, "POM-TLB");
    EXPECT_NE(pom.pomTlbDevice(), nullptr);
    EXPECT_NE(pom.pomTlbScheme(), nullptr);

    Machine baseline(config, "Baseline");
    EXPECT_EQ(baseline.pomTlbDevice(), nullptr);
    EXPECT_EQ(baseline.pomTlbScheme(), nullptr);
}

TEST(Machine, CoreCountScalesComponents)
{
    SystemConfig config = SystemConfig::table1();
    config.numCores = 4;
    Machine machine(config, "POM-TLB");
    for (CoreId core = 0; core < 4; ++core) {
        EXPECT_NO_THROW(machine.mmu(core));
        EXPECT_NO_THROW(machine.walker(core));
    }
    EXPECT_EQ(machine.hierarchy().numCores(), 4u);
}

TEST(Machine, PrivateL2PresentExceptSharedL2)
{
    SystemConfig config = SystemConfig::table1();
    config.numCores = 1;
    Machine pom(config, "POM-TLB");
    EXPECT_TRUE(pom.mmu(0).tlbs().hasPrivateL2());
    Machine shared(config, "Shared_L2");
    EXPECT_FALSE(shared.mmu(0).tlbs().hasPrivateL2());
    Machine tsb(config, "TSB");
    EXPECT_TRUE(tsb.mmu(0).tlbs().hasPrivateL2());
}

TEST(Machine, ShootdownVmClearsEverything)
{
    SystemConfig config = SystemConfig::table1();
    config.numCores = 1;
    Machine machine(config, "POM-TLB");
    machine.mmu(0).translate(0x1234000, PageSize::Small4K, 1, 1, 0);
    machine.shootdownVm(1);
    const MmuResult after = machine.mmu(0).translate(
        0x1234000, PageSize::Small4K, 1, 1, 1000);
    EXPECT_EQ(after.level, TlbLevel::Miss);
    EXPECT_TRUE(after.walked);
}

TEST(Machine, ResetStatsPreservesState)
{
    SystemConfig config = SystemConfig::table1();
    config.numCores = 1;
    Machine machine(config, "POM-TLB");
    machine.mmu(0).translate(0x1234000, PageSize::Small4K, 1, 1, 0);
    machine.resetStats();
    EXPECT_EQ(machine.mmu(0).translationCount(), 0u);
    // Translation state survives: next access is an L1 hit.
    const MmuResult after = machine.mmu(0).translate(
        0x1234000, PageSize::Small4K, 1, 1, 1000);
    EXPECT_EQ(after.level, TlbLevel::L1);
}

TEST(Machine, DramChannelsAreSeparate)
{
    SystemConfig config = SystemConfig::table1();
    config.numCores = 1;
    Machine machine(config, "POM-TLB");
    // Main-memory traffic does not touch the die-stacked channel.
    machine.hierarchy().accessData(0, 0x5000, AccessType::Read, 0);
    EXPECT_GT(machine.mainMemory().accessCount(), 0u);
    EXPECT_EQ(machine.dieStackedMemory().accessCount(), 0u);
}

TEST(Machine, NativeModeMachine)
{
    SystemConfig config = SystemConfig::table1();
    config.numCores = 1;
    config.mode = ExecMode::Native;
    Machine machine(config, "Baseline");
    const MmuResult result = machine.mmu(0).translate(
        0x1234000, PageSize::Small4K, 1, 1, 0);
    EXPECT_TRUE(result.walked);
    EXPECT_EQ(machine.memoryMap().mode(), ExecMode::Native);
}

} // namespace
} // namespace pomtlb
