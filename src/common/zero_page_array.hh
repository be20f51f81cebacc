/**
 * @file
 * A fixed-size array whose host pages exist only once written.
 *
 * Large simulated structures (the 16 MB POM-TLB, the TSB) are mostly
 * empty during a run. Backing them with an anonymous private mapping
 * and never touching it up front means the kernel hands out
 * zero-filled pages on first write, so a structure costs host memory
 * only for the pages its sets actually use, and construction costs
 * no memset. Reads of untouched pages see zeros, which is why only
 * types whose all-zero bytes are their empty state are accepted.
 *
 * The mapping is made directly with mmap rather than through
 * std::vector or calloc: the allocator may serve a large calloc from
 * its heap and zero it by hand, so the resident footprint would
 * depend on what the process allocated and freed before.
 */

#ifndef POMTLB_COMMON_ZERO_PAGE_ARRAY_HH
#define POMTLB_COMMON_ZERO_PAGE_ARRAY_HH

#include <sys/mman.h>

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace pomtlb
{

/**
 * Types an array may hold as untouched zero pages: trivially
 * copyable and destructible, and declaring that their all-zero bytes
 * are the empty value (`static constexpr bool zeroBytesAreEmpty`).
 */
template <typename T>
concept ZeroBytesAreEmpty =
    std::is_trivially_copyable_v<T> &&
    std::is_trivially_destructible_v<T> && T::zeroBytesAreEmpty;

/**
 * Move-only array of @p T backed by an anonymous mapping that is not
 * pre-faulted; every element starts as all-zero bytes.
 */
template <ZeroBytesAreEmpty T>
class ZeroPageArray
{
  public:
    /** An empty array with no mapping. */
    ZeroPageArray() = default;

    /**
     * Map @p element_count zero elements. Throws std::bad_alloc
     * when the mapping cannot be made.
     */
    explicit ZeroPageArray(std::size_t element_count)
        : count(element_count)
    {
        if (count == 0)
            return;
        void *mem = ::mmap(nullptr, bytes(), PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (mem == MAP_FAILED)
            throw std::bad_alloc();
#ifdef MADV_NOHUGEPAGE
        // Keep allocation at base-page granularity even where
        // transparent huge pages are always on; failure only costs
        // memory, so it is ignored.
        ::madvise(mem, bytes(), MADV_NOHUGEPAGE);
#endif
        elements = static_cast<T *>(mem);
    }

    ZeroPageArray(const ZeroPageArray &) = delete;
    ZeroPageArray &operator=(const ZeroPageArray &) = delete;

    /** Take over @p other's mapping, leaving it empty. */
    ZeroPageArray(ZeroPageArray &&other) noexcept
        : elements(std::exchange(other.elements, nullptr)),
          count(std::exchange(other.count, 0))
    {
    }

    /** Release this mapping and take over @p other's. */
    ZeroPageArray &
    operator=(ZeroPageArray &&other) noexcept
    {
        if (this != &other) {
            release();
            elements = std::exchange(other.elements, nullptr);
            count = std::exchange(other.count, 0);
        }
        return *this;
    }

    ~ZeroPageArray() { release(); }

    /** Number of elements. */
    std::size_t size() const { return count; }

    /** Element @p index (unchecked). */
    T &operator[](std::size_t index) { return elements[index]; }
    /** Element @p index (unchecked). */
    const T &operator[](std::size_t index) const
    {
        return elements[index];
    }

    /** First element. */
    T *begin() { return elements; }
    /** First element. */
    const T *begin() const { return elements; }
    /** One past the last element. */
    T *end() { return elements + count; }

  private:
    std::size_t bytes() const { return count * sizeof(T); }

    void
    release()
    {
        if (elements)
            ::munmap(elements, bytes());
        elements = nullptr;
        count = 0;
    }

    T *elements = nullptr;
    std::size_t count = 0;
};

} // namespace pomtlb

#endif // POMTLB_COMMON_ZERO_PAGE_ARRAY_HH
