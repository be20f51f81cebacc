#include "cache/cache.hh"

#include <limits>

#include "common/bitutil.hh"
#include "common/log.hh"

namespace pomtlb
{

namespace
{
/** @p config, after validate() has accepted it. */
const CacheConfig &
validated(const CacheConfig &config)
{
    config.validate();
    return config;
}
} // namespace

SetAssocCache::SetAssocCache(const CacheConfig &config)
    : cacheConfig(validated(config)),
      sets(config.numSets()),
      ways(config.associativity),
      lineShift(floorLog2(config.lineBytes)),
      setBits(floorLog2(config.numSets())),
      blocks(config.numSets(), 6 * config.associativity),
      statGroup(config.name)
{
    statGroup.addCounter("data_hits", dataHits);
    statGroup.addCounter("data_misses", dataMisses);
    statGroup.addCounter("tlb_hits", tlbHits);
    statGroup.addCounter("tlb_misses", tlbMisses);
    statGroup.addCounter("fills", fills);
    statGroup.addCounter("evictions", evictions);
    statGroup.addCounter("writebacks", writebacks);
    statGroup.addCounter("invalidations", invalidations);
    statGroup.addDerived("hit_rate", [this] { return hitRate(); });
    statGroup.addDerived("tlb_line_occupancy", [this] {
        return static_cast<double>(tlbLines) /
               static_cast<double>(sets * ways);
    });
}

std::uint32_t
SetAssocCache::storedTag(Addr addr) const
{
    const std::uint64_t tag = addr >> (lineShift + setBits);
    if (tag >= std::numeric_limits<std::uint32_t>::max())
        return 0;
    return static_cast<std::uint32_t>(tag + 1);
}

Addr
SetAssocCache::lineAddr(std::uint64_t set, std::uint32_t stored) const
{
    return ((static_cast<Addr>(stored - 1) << setBits) | set)
           << lineShift;
}

CacheLookupResult
SetAssocCache::lookup(Addr addr, AccessType type, LineKind probe_kind)
{
    CacheLookupResult result;
    std::uint8_t *block = blocks.block(setIndex(addr));
    const unsigned way = matchWay(block, storedTag(addr));
    if (way != ways) {
        std::uint8_t &meta = metaLane(block)[way];
        result.hit = true;
        result.kind = kindOf(meta);
        if (type == AccessType::Write)
            meta |= metaDirty;
        touchAge(ageLane(block), ways, way);
        if (probe_kind == LineKind::Data)
            ++dataHits;
        else
            ++tlbHits;
    } else {
        if (probe_kind == LineKind::Data)
            ++dataMisses;
        else
            ++tlbMisses;
    }
    return result;
}

bool
SetAssocCache::contains(Addr addr) const
{
    return matchWay(blocks.block(setIndex(addr)), storedTag(addr)) !=
           ways;
}

CacheFillResult
SetAssocCache::fill(Addr addr, LineKind kind, bool dirty)
{
    CacheFillResult result;
    ++fills;

    const std::uint32_t stored = storedTag(addr);
    simAssert(stored != 0, cacheConfig.name, ": the tag of address ",
              addr, " does not fit the 32-bit tag lane");
    const std::uint64_t set = setIndex(addr);
    std::uint8_t *block = blocks.block(set);
    std::uint32_t *tags = tagLane(block);
    std::uint8_t *ages = ageLane(block);
    std::uint8_t *meta = metaLane(block);

    // Fixed-trip scans over the block's tag lane find the resident
    // line (at most one way can match) and the first free way; only
    // when both miss does the victim scan over the age lane run
    // (common/setscan.hh). The lowest way wins every tie.
    const unsigned match = matchWay(block, stored);

    // Refresh in place when the line is already resident (e.g. two
    // outstanding misses to the same line resolved back to back).
    if (match != ways) {
        if (dirty)
            meta[match] |= metaDirty;
        if (kindOf(meta[match]) != kind) {
            tlbLines += (kind == LineKind::TlbEntry) ? 1 : -1;
            meta[match] ^= metaTlb;
        }
        touchAge(ages, ways, match);
        return result;
    }

    unsigned target = findKeyWay(tags, ways, std::uint32_t{0});
    if (target == ways) {
        target = victimWay(block);
        result.evicted = true;
        result.victimAddr = lineAddr(set, tags[target]);
        result.victimDirty = (meta[target] & metaDirty) != 0;
        result.victimKind = kindOf(meta[target]);
        ++evictions;
        if (result.victimDirty)
            ++writebacks;
        if (result.victimKind == LineKind::TlbEntry)
            --tlbLines;
        --validLines;
    }

    tags[target] = stored;
    meta[target] = (dirty ? metaDirty : 0) |
                   (kind == LineKind::TlbEntry ? metaTlb : 0);
    touchAge(ages, ways, target);
    ++validLines;
    if (kind == LineKind::TlbEntry)
        ++tlbLines;
    return result;
}

unsigned
SetAssocCache::victimWay(std::uint8_t *block) const
{
    // Every way of a full set was touched when it was filled, so its
    // ages are a permutation of 0..ways-1 in last-touch order: the
    // way aged 0 is the LRU line, and the lowest-aged data line is
    // the LRU data line.
    const std::uint8_t *ages = ageLane(block);

    // Section 5.1: retain TLB lines — evict the least-recently-used
    // *data* line when one exists; fall back to overall LRU when the
    // set holds nothing but TLB lines. TLB lines read as an age no
    // way can have.
    if (tlbPolicy == TlbLinePolicy::RetainTlb) {
        constexpr std::uint8_t untouchable = 0xff;
        const std::uint8_t *meta = metaLane(block);
        std::uint8_t lowest = untouchable;
        for (unsigned way = 0; way < ways; ++way) {
            const std::uint8_t age =
                (meta[way] & metaTlb) ? untouchable : ages[way];
            lowest = age < lowest ? age : lowest;
        }
        if (lowest != untouchable)
            return findKeyWay(ages, ways, lowest);
    }
    return findKeyWay(ages, ways, std::uint8_t{0});
}

bool
SetAssocCache::invalidate(Addr addr)
{
    std::uint8_t *block = blocks.block(setIndex(addr));
    const unsigned way = matchWay(block, storedTag(addr));
    if (way == ways)
        return false;
    std::uint8_t &meta = metaLane(block)[way];
    if (meta & metaTlb)
        --tlbLines;
    --validLines;
    tagLane(block)[way] = 0;
    meta = 0;
    ++invalidations;
    return true;
}

std::uint64_t
SetAssocCache::flush()
{
    std::uint64_t dropped = 0;
    for (std::uint64_t set = 0; set < sets; ++set) {
        std::uint8_t *block = blocks.block(set);
        std::uint32_t *tags = tagLane(block);
        std::uint8_t *meta = metaLane(block);
        for (unsigned way = 0; way < ways; ++way) {
            if (tags[way] != 0) {
                ++dropped;
                tags[way] = 0;
                meta[way] = 0;
            }
        }
    }
    tlbLines = 0;
    validLines = 0;
    return dropped;
}

double
SetAssocCache::hitRate() const
{
    const std::uint64_t hits = dataHits.value() + tlbHits.value();
    const std::uint64_t total =
        hits + dataMisses.value() + tlbMisses.value();
    return total ? static_cast<double>(hits) / total : 0.0;
}

double
SetAssocCache::hitRate(LineKind kind) const
{
    const std::uint64_t hits = hitCount(kind);
    const std::uint64_t total = hits + missCount(kind);
    return total ? static_cast<double>(hits) / total : 0.0;
}

void
SetAssocCache::resetStats()
{
    dataHits.reset();
    dataMisses.reset();
    tlbHits.reset();
    tlbMisses.reset();
    fills.reset();
    evictions.reset();
    writebacks.reset();
    invalidations.reset();
}

} // namespace pomtlb
