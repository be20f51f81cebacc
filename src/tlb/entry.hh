/**
 * @file
 * The logical TLB entry shared by SRAM TLBs and the POM-TLB.
 *
 * Stored in the 16-byte format of Figure 5, as two 64-bit words with
 * fixed shifts and masks (compiler bitfields are avoided: their
 * layout is implementation-defined):
 *
 *     key:  bits  0..51  virtual page number
 *           bit  52      page size (0 = 4 KB, 1 = 2 MB)
 *           bit  53      valid
 *           bits 54..55  zero
 *           bits 56..63  attribute byte; its low two bits are the
 *                        POM-TLB's in-DRAM LRU age
 *     data: bits  0..31  physical page number
 *           bits 32..47  VM ID
 *           bits 48..63  process ID
 *
 * Four entries fill one 64 B POM-TLB set. All-zero bytes are an
 * invalid entry, so arrays of entries can start as untouched
 * zero-filled pages (common/zero_page_array.hh).
 */

#ifndef POMTLB_TLB_ENTRY_HH
#define POMTLB_TLB_ENTRY_HH

#include <type_traits>

#include "common/types.hh"

namespace pomtlb
{

/** A guest-virtual to host-physical translation record. */
struct TlbEntry
{
    /** Bits of the virtual page number field. */
    static constexpr unsigned vpnBits = 52;
    /** Bits of the physical page number field. */
    static constexpr unsigned pfnBits = 32;
    /** Largest storable virtual page number. */
    static constexpr PageNum maxVpn = (PageNum{1} << vpnBits) - 1;
    /** Largest storable physical page number. */
    static constexpr PageNum maxPfn = (PageNum{1} << pfnBits) - 1;

    /** key: page-size bit (set for 2 MB pages). */
    static constexpr unsigned sizeShift = 52;
    /** key: valid bit. */
    static constexpr std::uint64_t validBit = std::uint64_t{1} << 53;
    /** key: first bit of the attribute byte. */
    static constexpr unsigned attrShift = 56;
    /** key: the attribute byte. */
    static constexpr std::uint64_t attrMask = std::uint64_t{0xff}
                                              << attrShift;
    /** key: the bits an exact match compares (VPN, size, valid). */
    static constexpr std::uint64_t keyMatchMask =
        maxVpn | (std::uint64_t{1} << sizeShift) | validBit;

    /** data: first bit of the VM ID. */
    static constexpr unsigned vmShift = 32;
    /** data: first bit of the process ID. */
    static constexpr unsigned pidShift = 48;
    /** data: the bits an exact match compares (VM ID, PID). */
    static constexpr std::uint64_t tagMask = ~maxPfn;
    /** data: the VM ID field. */
    static constexpr std::uint64_t vmMask = std::uint64_t{0xffff}
                                            << vmShift;

    /** Marks TlbEntry arrays safe to start as zero pages. */
    static constexpr bool zeroBytesAreEmpty = true;

    /** VPN, page size, valid bit and attribute byte. */
    std::uint64_t key = 0;
    /** PFN, VM ID and process ID. */
    std::uint64_t data = 0;

    /** Do @p vpn and @p pfn fit their fields? */
    static constexpr bool
    fits(PageNum vpn, PageNum pfn)
    {
        return vpn <= maxVpn && pfn <= maxPfn;
    }

    /** The matched key bits of a valid entry for (vpn, size). */
    static constexpr std::uint64_t
    keyOf(PageNum vpn, PageSize size)
    {
        return vpn |
               (static_cast<std::uint64_t>(size) << sizeShift) |
               validBit;
    }

    /** The matched data bits of an entry for (vm, pid). */
    static constexpr std::uint64_t
    tagOf(VmId vm, ProcessId pid)
    {
        return (static_cast<std::uint64_t>(vm) << vmShift) |
               (static_cast<std::uint64_t>(pid) << pidShift);
    }

    /**
     * Does this entry translate (vpn, vmId, pid) at this page size?
     * @p lookup_vpn must fit the VPN field, as the VPN of any 64-bit
     * address does.
     */
    bool
    matches(PageNum lookup_vpn, VmId lookup_vm, ProcessId lookup_pid,
            PageSize lookup_size) const
    {
        return (key & keyMatchMask) == keyOf(lookup_vpn, lookup_size) &&
               (data & tagMask) == tagOf(lookup_vm, lookup_pid);
    }

    /** Is this a valid entry of @p vm? */
    bool
    validInVm(VmId vm) const
    {
        return (key & validBit) &&
               (data & vmMask) ==
                   (static_cast<std::uint64_t>(vm) << vmShift);
    }

    /** Is the entry valid? */
    bool valid() const { return key & validBit; }
    /** Virtual page number. */
    PageNum vpn() const { return key & maxVpn; }
    /** Page size of the translation. */
    PageSize
    pageSize() const
    {
        return static_cast<PageSize>((key >> sizeShift) & 1);
    }
    /** Replacement/protection attribute bits (Figure 5 "Attr"). */
    std::uint8_t
    attr() const
    {
        return static_cast<std::uint8_t>(key >> attrShift);
    }
    /** Physical page number. */
    PageNum pfn() const { return data & maxPfn; }
    /** VM ID. */
    VmId vmId() const { return static_cast<VmId>(data >> vmShift); }
    /** Process ID. */
    ProcessId
    pid() const
    {
        return static_cast<ProcessId>(data >> pidShift);
    }

    /**
     * Make this a valid entry for the given translation, keeping the
     * attribute byte. The caller checks fits(vpn, pfn).
     */
    void
    set(PageNum new_vpn, VmId vm, ProcessId new_pid, PageSize size,
        PageNum new_pfn)
    {
        key = (key & attrMask) | keyOf(new_vpn, size);
        data = new_pfn | tagOf(vm, new_pid);
    }

    /** Replace the PFN (the caller checks fits()). */
    void setPfn(PageNum new_pfn) { data = (data & tagMask) | new_pfn; }

    /** Replace the attribute byte. */
    void
    setAttr(std::uint8_t bits)
    {
        key = (key & ~attrMask) |
              (static_cast<std::uint64_t>(bits) << attrShift);
    }

    /** Clear the valid bit; the other fields stay as they were. */
    void invalidate() { key &= ~validBit; }
};

static_assert(sizeof(TlbEntry) == 16,
              "TlbEntry must keep the 16-byte Figure 5 format");
static_assert(std::is_trivially_copyable_v<TlbEntry>,
              "TlbEntry arrays are copied and zero-filled as bytes");

} // namespace pomtlb

#endif // POMTLB_TLB_ENTRY_HH
