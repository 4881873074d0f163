/**
 * @file
 * ZeroedArray: a fixed-size array whose elements start as all-zero
 * bytes, backed by its own anonymous mapping. The kernel zero-fills a
 * page on first touch, so a large, sparsely used table (a cache's tag
 * array) costs neither a memset at construction nor resident memory
 * for the part never touched.
 *
 * Mappings are recycled. A destroyed array's mapping goes to a bounded
 * per-process pool after its data pages are zeroed again, and the next
 * array of the same page-rounded size takes it before mmap is called.
 * A process that builds the same tables job after job (a campaign
 * worker, one SoC per program) thus starts each job from pages that are
 * already zero and already faulted in.
 */

#ifndef MINJIE_COMMON_ZEROED_ARRAY_H
#define MINJIE_COMMON_ZEROED_ARRAY_H

#include <cstddef>
#include <type_traits>
#include <utility>

namespace minjie {

namespace zeroed {

/** The pool keeps at most this many mappings, of at most this many
 *  bytes in all; a release beyond either bound unmaps. */
constexpr size_t kPoolMappings = 64;
constexpr size_t kPoolBytes = size_t{64} << 20;

/** A mapping of @p bytes (rounded up to pages) that reads as zeros:
 *  a pooled one of the same rounded size, else a fresh one.
 *  Throws std::bad_alloc when mmap fails. */
void *acquire(size_t bytes);

/**
 * Give back a mapping from acquire(). Its pages that can hold data are
 * zeroed: resident ones by memset, swapped-out ones by MADV_DONTNEED,
 * as one read of /proc/self/pagemap tells. A mapping of a few pages,
 * where that read costs more than the memset, is zeroed whole. The
 * mapping is then pooled, or unmapped when the pool is full or its
 * residency cannot be read.
 */
void release(void *p, size_t bytes);

/** Mappings the pool holds now. */
size_t pooled();

} // namespace zeroed

template <typename T>
class ZeroedArray
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "elements must be valid as all-zero bytes");

  public:
    ZeroedArray() = default;

    explicit ZeroedArray(size_t n) : size_(n)
    {
        if (n)
            data_ = static_cast<T *>(zeroed::acquire(bytes()));
    }

    ~ZeroedArray()
    {
        if (data_)
            zeroed::release(data_, bytes());
    }

    ZeroedArray(ZeroedArray &&o) noexcept
        : data_(std::exchange(o.data_, nullptr)),
          size_(std::exchange(o.size_, 0))
    {
    }

    ZeroedArray &
    operator=(ZeroedArray &&o) noexcept
    {
        ZeroedArray tmp(std::move(o));
        std::swap(data_, tmp.data_);
        std::swap(size_, tmp.size_);
        return *this;
    }

    ZeroedArray(const ZeroedArray &) = delete;
    ZeroedArray &operator=(const ZeroedArray &) = delete;

    T &operator[](size_t i) { return data_[i]; }
    const T &operator[](size_t i) const { return data_[i]; }
    T *data() { return data_; }
    size_t size() const { return size_; }
    T *begin() { return data_; }
    T *end() { return data_ + size_; }

  private:
    size_t bytes() const { return size_ * sizeof(T); }

    T *data_ = nullptr;
    size_t size_ = 0;
};

} // namespace minjie

#endif // MINJIE_COMMON_ZEROED_ARRAY_H
