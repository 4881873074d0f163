/**
 * @file
 * ZeroedArray: a fixed-size array whose elements start as all-zero
 * bytes, backed by its own anonymous mapping. The kernel zero-fills a
 * page on first touch, so a large, sparsely used table (a cache's tag
 * array) costs neither a memset at construction nor resident memory
 * for the part never touched, and leaves no free-but-retained heap
 * behind when it is destroyed.
 */

#ifndef MINJIE_COMMON_ZEROED_ARRAY_H
#define MINJIE_COMMON_ZEROED_ARRAY_H

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include <sys/mman.h>

namespace minjie {

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
        if (n == 0)
            return;
        void *p = mmap(nullptr, bytes(), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        data_ = static_cast<T *>(p);
    }

    ~ZeroedArray()
    {
        if (data_)
            munmap(data_, bytes());
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
    T *begin() { return data_; }
    T *end() { return data_ + size_; }

  private:
    size_t bytes() const { return size_ * sizeof(T); }

    T *data_ = nullptr;
    size_t size_ = 0;
};

} // namespace minjie

#endif // MINJIE_COMMON_ZEROED_ARRAY_H
