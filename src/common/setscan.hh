/**
 * @file
 * Set blocks and branch-free scan primitives for set-associative
 * lookups.
 *
 * The data caches and SRAM TLBs keep each simulated set's hot state
 * together in one *set block*: a key lane (one 32-bit key per way)
 * followed by one LRU age byte per way, and for caches one meta byte
 * per way. A block is padded to a power of two, so a 4-way cache
 * set takes 32 B (two sets share a 64 B host line), an 8-way set
 * one line and a 16-way set an aligned line pair. One probe and its
 * victim choice therefore touch the fewest host lines — the host
 * analogue of the paper's POM-TLB set, a 64 B line carrying its own
 * 2-bit LRU (Section 2.2). Blocks live in zero pages
 * (common/zero_page_array.hh), so all-zero bytes must be an empty
 * set: key 0 marks an invalid way and age 0 is the oldest.
 *
 * Replacement is exact LRU from byte ages (touchAge()): touching a
 * way ages every way younger than it by one and makes it the
 * youngest (`ways - 1`). Once every way of a set has been touched the
 * ages are a permutation of 0..ways-1 in last-touch order, so the
 * victim — the way aged 0 — is the least recently used one.
 *
 * The scans are fixed-trip-count passes over the whole set (a
 * compare-into-bitmask reduction) that GCC and Clang turn into SIMD
 * compares without intrinsics; the classic early-exit loop defeats
 * auto-vectorization. The lowest matching way wins every tie, as in
 * the scalar loops these replace; the golden fixtures in
 * tests/golden/ pin that equivalence.
 */

#ifndef POMTLB_COMMON_SETSCAN_HH
#define POMTLB_COMMON_SETSCAN_HH

#include <bit>
#include <cstddef>
#include <cstdint>

#include "common/zero_page_array.hh"

namespace pomtlb
{

/** Widest associativity a set scan handles (one mask bit per way). */
inline constexpr unsigned maxSetWays = 64;

/**
 * Bitmask of the ways in @p keys[0..ways) equal to @p key (bit w set
 * iff way w matches). Compares every way unconditionally — a
 * reduction the vectorizer maps onto SIMD compares at any lane
 * width. Associativity must be at most maxSetWays.
 */
template <typename Key>
inline std::uint64_t
findKeyMask(const Key *keys, unsigned ways, Key key)
{
    std::uint64_t mask = 0;
    for (unsigned way = 0; way < ways; ++way) {
        mask |= static_cast<std::uint64_t>(keys[way] == key)
                << way;
    }
    return mask;
}

/**
 * First way in @p keys[0..ways) equal to @p key, or @p ways when no
 * way matches.
 */
template <typename Key>
inline unsigned
findKeyWay(const Key *keys, unsigned ways, Key key)
{
    const std::uint64_t mask = findKeyMask(keys, ways, key);
    if (mask == 0)
        return ways;
    return static_cast<unsigned>(std::countr_zero(mask));
}

/**
 * Make @p way the most recently used of @p ages[0..ways): every way
 * younger than it (a higher age) ages by one, and it takes the top
 * age `ways - 1`. Never-touched ways stay at 0, so they are always
 * among the oldest.
 */
inline void
touchAge(std::uint8_t *ages, unsigned ways, unsigned way)
{
    const std::uint8_t own = ages[way];
    for (unsigned w = 0; w < ways; ++w)
        ages[w] = static_cast<std::uint8_t>(ages[w] - (ages[w] > own));
    ages[way] = static_cast<std::uint8_t>(ways - 1);
}

/** One 64 B host cache line of set blocks; zero bytes are empty. */
struct alignas(64) HostLine
{
    /** The line's bytes, carved into set blocks. */
    std::uint8_t bytes[64];

    /** Zero-filled lines are empty sets (ZeroPageArray contract). */
    static constexpr bool zeroBytesAreEmpty = true;
};

/**
 * One block per set, each a power-of-two number of bytes at a
 * naturally aligned offset, backed by zero pages: construction is a
 * single untouched mapping and a set costs host memory only once
 * written.
 */
class SetBlocks
{
  public:
    /**
     * @param sets        Number of sets.
     * @param block_bytes Bytes one set needs; rounded up to a power
     *                    of two.
     */
    SetBlocks(std::uint64_t sets, unsigned block_bytes)
        : stride(std::bit_ceil(block_bytes)),
          lines((sets * stride + sizeof(HostLine) - 1) /
                sizeof(HostLine))
    {
    }

    /** First byte of @p set's block. */
    std::uint8_t *
    block(std::uint64_t set)
    {
        return reinterpret_cast<std::uint8_t *>(lines.begin()) +
               set * stride;
    }

    /** First byte of @p set's block. */
    const std::uint8_t *
    block(std::uint64_t set) const
    {
        return reinterpret_cast<const std::uint8_t *>(lines.begin()) +
               set * stride;
    }

    /**
     * Ask the host to pull @p set's block into its caches: every
     * host line of it, for a lookup and a victim choice. Changes no
     * state. Always inlined: GCC drops calls to a function that only
     * prefetches.
     */
    [[gnu::always_inline]] void
    prefetch(std::uint64_t set) const
    {
        const std::uint8_t *first = block(set);
        for (unsigned offset = 0; offset < stride;
             offset += sizeof(HostLine))
            __builtin_prefetch(first + offset);
    }

  private:
    unsigned stride;
    ZeroPageArray<HostLine> lines;
};

} // namespace pomtlb

#endif // POMTLB_COMMON_SETSCAN_HH
