#include "schemes/victima_scheme.hh"

#include "common/bitutil.hh"
#include "common/log.hh"
#include "sim/machine.hh"
#include "sim/scheme_registry.hh"

namespace pomtlb
{

namespace
{
constexpr std::uint64_t kBlockBytes = 64;
} // namespace

VictimaScheme::VictimaScheme(
    const VictimaConfig &config, DataHierarchy &hierarchy,
    std::vector<std::unique_ptr<PageWalker>> &walkers)
    : victimaConfig(config),
      dataHierarchy(hierarchy),
      pageWalkers(walkers),
      numBlocks(config.regionBytes / kBlockBytes),
      statGroup("scheme")
{
    victimaConfig.validate();
    statGroup.addCounter("requests", requests);
    statGroup.addCounter("served_l2d_cache", servedL2d);
    statGroup.addCounter("served_l3d_cache", servedL3d);
    statGroup.addCounter("served_page_walk", servedWalks);
    statGroup.addCounter("l2d_cache_cycles", l2dCycles);
    statGroup.addCounter("l3d_cache_cycles", l3dCycles);
    statGroup.addCounter("walk_path_cycles", walkPathCycles);
    statGroup.addAverage("avg_miss_cycles", missCycles);
    statGroup.addDerived("cached_line_hit_rate",
                         [this] { return cachedLineHitRate(); });
    statGroup.addHistogram("miss_cycle_hist", missCycleHist);
}

Addr
VictimaScheme::blockAddress(PageNum vpn, PageSize size, VmId vm,
                            ProcessId pid) const
{
    const std::uint64_t key =
        (vpn << 3) ^ (static_cast<std::uint64_t>(vm) << 48) ^
        (static_cast<std::uint64_t>(pid) << 32) ^
        static_cast<std::uint64_t>(size);
    const std::uint64_t index = mix64(key) & (numBlocks - 1);
    return victimaConfig.baseAddress + index * kBlockBytes;
}

VictimaScheme::Slot *
VictimaScheme::findSlot(Block &block, PageNum vpn, PageSize size,
                        VmId vm, ProcessId pid)
{
    for (Slot &slot : block.slots) {
        if (slot.valid && slot.vpn == vpn && slot.size == size &&
            slot.vm == vm && slot.pid == pid) {
            return &slot;
        }
    }
    return nullptr;
}

void
VictimaScheme::installSlot(Addr block_addr, PageNum vpn,
                           PageSize size, VmId vm, ProcessId pid,
                           PageNum pfn)
{
    Block &block = shadow[block_addr];
    if (block.slots.empty())
        block.slots.resize(victimaConfig.entriesPerBlock);
    if (Slot *slot = findSlot(block, vpn, size, vm, pid)) {
        slot->pfn = pfn;
        slot->stamp = ++tick;
        return;
    }
    Slot *victim = &block.slots.front();
    for (Slot &slot : block.slots) {
        if (!slot.valid) {
            victim = &slot;
            break;
        }
        if (slot.stamp < victim->stamp)
            victim = &slot;
    }
    victim->valid = true;
    victim->vm = vm;
    victim->pid = pid;
    victim->size = size;
    victim->vpn = vpn;
    victim->pfn = pfn;
    victim->stamp = ++tick;
}

SchemeResult
VictimaScheme::translateMiss(CoreId core, Addr vaddr, PageSize size,
                             VmId vm, ProcessId pid, Cycles now)
{
    simAssert(core < pageWalkers.size(), "core id out of range");
    SchemeResult result;
    ++requests;

    const PageNum vpn = pageNumber(vaddr, size);
    const Addr block_addr = blockAddress(vpn, size, vm, pid);
    const CacheProbeResult probe =
        dataHierarchy.probeTlbLine(core, block_addr, now);
    result.cycles += probe.latency;
    if (probe.hit) {
        auto it = shadow.find(block_addr);
        Slot *slot = it == shadow.end()
                         ? nullptr
                         : findSlot(it->second, vpn, size, vm, pid);
        if (slot != nullptr) {
            slot->stamp = ++tick;
            result.pfn = slot->pfn;
            result.probes = 1;
            if (probe.level == MemLevel::L2D) {
                result.servedBy = ServicePoint::VictimaL2D;
                ++servedL2d;
                l2dCycles += result.cycles;
            } else {
                result.servedBy = ServicePoint::VictimaL3D;
                ++servedL3d;
                l3dCycles += result.cycles;
            }
            missCycles.sample(static_cast<double>(result.cycles));
            missCycleHist.sample(result.cycles);
            return result;
        }
    }

    const WalkResult walk = pageWalkers[core]->walk(
        vaddr, vm, pid, size, now + result.cycles);
    result.cycles += walk.cycles;
    result.pfn = walk.hostPfn;
    result.walked = true;
    result.servedBy = ServicePoint::PageWalk;
    result.probes = 2;
    result.firstTryServed = false;
    ++servedWalks;
    walkPathCycles += result.cycles;

    installSlot(block_addr, vpn, size, vm, pid, walk.hostPfn);
    dataHierarchy.fillTlbLine(core, block_addr);
    missCycles.sample(static_cast<double>(result.cycles));
    missCycleHist.sample(result.cycles);
    return result;
}

void
VictimaScheme::prewarm(CoreId core, Addr vaddr, PageSize size,
                       VmId vm, ProcessId pid, PageNum pfn)
{
    const PageNum vpn = pageNumber(vaddr, size);
    const Addr block_addr = blockAddress(vpn, size, vm, pid);
    installSlot(block_addr, vpn, size, vm, pid, pfn);
    dataHierarchy.fillTlbLine(core, block_addr);
}

std::vector<std::pair<ServicePoint, std::uint64_t>>
VictimaScheme::cycleBreakdown() const
{
    return {{ServicePoint::VictimaL2D, l2dCycles.value()},
            {ServicePoint::VictimaL3D, l3dCycles.value()},
            {ServicePoint::PageWalk, walkPathCycles.value()}};
}

void
VictimaScheme::invalidatePage(Addr vaddr, PageSize size, VmId vm,
                              ProcessId pid)
{
    const PageNum vpn = pageNumber(vaddr, size);
    const Addr block_addr = blockAddress(vpn, size, vm, pid);
    auto it = shadow.find(block_addr);
    if (it == shadow.end())
        return;
    if (Slot *slot = findSlot(it->second, vpn, size, vm, pid))
        slot->valid = false;
    // Drop the cached copy too: the block's payload changed.
    dataHierarchy.invalidateTlbLine(block_addr);
}

void
VictimaScheme::invalidateVm(VmId vm)
{
    for (auto &[block_addr, block] : shadow) {
        bool touched = false;
        for (Slot &slot : block.slots) {
            if (slot.valid && slot.vm == vm) {
                slot.valid = false;
                touched = true;
            }
        }
        if (touched)
            dataHierarchy.invalidateTlbLine(block_addr);
    }
    for (auto &walker : pageWalkers)
        walker->invalidateVm(vm);
}

double
VictimaScheme::cachedLineHitRate() const
{
    const std::uint64_t served =
        servedL2d.value() + servedL3d.value();
    const std::uint64_t total = served + servedWalks.value();
    return total ? static_cast<double>(served) / total : 0.0;
}

void
VictimaScheme::resetStats()
{
    requests.reset();
    servedL2d.reset();
    servedL3d.reset();
    servedWalks.reset();
    l2dCycles.reset();
    l3dCycles.reset();
    walkPathCycles.reset();
    missCycles.reset();
    missCycleHist.reset();
}

POMTLB_REGISTER_SCHEME(registerVictima, {
    .name = "Victima",
    .description = "translations stashed in underutilized L2/L3 "
                   "data-cache blocks (Kanellopoulos et al.)",
    .aliases = {"victima"},
    .rank = 5,
    .factory = [](const SystemConfig &config, Machine &machine)
        -> std::unique_ptr<TranslationScheme> {
        return std::make_unique<VictimaScheme>(config.victima,
                                               machine.hierarchy(),
                                               machine.walkerPool());
    },
});

} // namespace pomtlb
