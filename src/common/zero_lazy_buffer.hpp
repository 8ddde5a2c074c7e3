// Fixed-size zero-initialized flat buffer for implicit-lifetime types.
//
// Large buffers are fresh anonymous mappings, whose pages are
// zero-fill-on-demand: constructing a d ~ 10⁶ buffer is O(1), physical
// pages commit only when first written, and untouched slots read as zero
// off the kernel's shared zero page. This is what makes a d-sized slot map
// free to create while its resident footprint tracks only the slots
// actually learned. The mapping is made here rather than left to calloc:
// once glibc frees one multi-megabyte block it raises its mmap threshold
// and serves the next same-sized calloc from the heap, zeroing it eagerly.
// Small buffers use calloc. Move-only.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>
#include <type_traits>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace megh {

template <typename T>
class ZeroLazyBuffer {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "ZeroLazyBuffer requires an implicit-lifetime element type");

 public:
  ZeroLazyBuffer() = default;

  explicit ZeroLazyBuffer(std::size_t n) : n_(n) {
    if (n_ == 0) return;
#if defined(__linux__)
    if (mapped()) {
      void* p = ::mmap(nullptr, n_ * sizeof(T), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p == MAP_FAILED) throw std::bad_alloc();
      data_ = static_cast<T*>(p);
      return;
    }
#endif
    data_ = static_cast<T*>(std::calloc(n_, sizeof(T)));
    if (data_ == nullptr) throw std::bad_alloc();
  }

  ZeroLazyBuffer(const ZeroLazyBuffer&) = delete;
  ZeroLazyBuffer& operator=(const ZeroLazyBuffer&) = delete;

  ZeroLazyBuffer(ZeroLazyBuffer&& other) noexcept
      : data_(other.data_), n_(other.n_) {
    other.data_ = nullptr;
    other.n_ = 0;
  }

  ZeroLazyBuffer& operator=(ZeroLazyBuffer&& other) noexcept {
    if (this != &other) {
      release();
      data_ = other.data_;
      n_ = other.n_;
      other.data_ = nullptr;
      other.n_ = 0;
    }
    return *this;
  }

  ~ZeroLazyBuffer() { release(); }

  std::size_t size() const { return n_; }
  T* data() { return data_; }
  const T* data() const { return data_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

 private:
  /// Buffers of at least this size are mapped; below it eager zeroing is
  /// a few cache lines' work.
  static constexpr std::size_t kMapBytes = std::size_t{64} << 10;

  bool mapped() const { return n_ * sizeof(T) >= kMapBytes; }

  void release() noexcept {
    if (data_ == nullptr) return;
#if defined(__linux__)
    if (mapped()) {
      ::munmap(data_, n_ * sizeof(T));
      data_ = nullptr;
      return;
    }
#endif
    std::free(data_);
    data_ = nullptr;
  }

  T* data_ = nullptr;
  std::size_t n_ = 0;
};

}  // namespace megh
