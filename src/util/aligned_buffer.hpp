// Cache-line/SIMD aligned owning buffer.
//
// Particle and tree storage is structure-of-arrays; 64-byte alignment lets
// the compiler vectorise the lane loops of the simulated warp kernels
// without peeling and mirrors cudaMalloc's 256-byte-aligned allocations in
// spirit (no false sharing between pool workers).
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>
#include <utility>

namespace gothic {

template <typename T>
class AlignedBuffer {
public:
  static constexpr std::size_t kAlignment = 64;

  AlignedBuffer() = default;

  explicit AlignedBuffer(std::size_t n) { resize(n); }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  AlignedBuffer(AlignedBuffer&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)) {}

  AlignedBuffer& operator=(AlignedBuffer&& o) noexcept {
    if (this != &o) {
      release();
      data_ = std::exchange(o.data_, nullptr);
      size_ = std::exchange(o.size_, 0);
    }
    return *this;
  }

  ~AlignedBuffer() { release(); }

  /// Resize, discarding contents. Elements are value-initialised.
  void resize(std::size_t n) {
    release();
    if (n == 0) return;
    void* p = std::aligned_alloc(kAlignment, round_up(n * sizeof(T)));
    if (p == nullptr) throw std::bad_alloc();
    data_ = static_cast<T*>(p);
    size_ = n;
    for (std::size_t i = 0; i < n; ++i) new (data_ + i) T();
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] T* begin() { return data_; }
  [[nodiscard]] T* end() { return data_ + size_; }
  [[nodiscard]] const T* begin() const { return data_; }
  [[nodiscard]] const T* end() const { return data_ + size_; }

private:
  static std::size_t round_up(std::size_t bytes) {
    return (bytes + kAlignment - 1) / kAlignment * kAlignment;
  }
  void release() {
    if (data_ != nullptr) {
      for (std::size_t i = 0; i < size_; ++i) data_[i].~T();
      std::free(data_);
      data_ = nullptr;
      size_ = 0;
    }
  }
  T* data_ = nullptr;
  std::size_t size_ = 0;
};

} // namespace gothic
