// Per-worker scratch arenas for the kernel-launch runtime.
//
// GOTHIC keeps every per-warp traversal buffer in persistent device memory
// sized at start-up (§3); the simulated kernels get the same behaviour from
// a bump allocator that retains its high-water capacity across launches.
// After a few warm-up launches every allocation is served from the retained
// chunk and the heap is never touched again — `heap_allocations()` exposes
// that invariant to the tests.
//
// Alignment defaults to a 64-byte cache line so per-worker slots handed out
// by an arena can never false-share, the pitfall the walkTree per-thread
// stat slots used to have to guard against by hand.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace gothic::runtime {

class Arena {
public:
  /// Default alignment of every allocation: one cache line.
  static constexpr std::size_t kAlignment = 64;
  /// Smallest chunk requested from the heap.
  static constexpr std::size_t kMinChunk = std::size_t{64} * 1024;

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() {
    for (Chunk& c : chunks_) release(c);
  }

  /// Bump-allocate `bytes` aligned to `align` (power of two). Falls back to
  /// a fresh heap chunk only when the retained ones are exhausted.
  void* allocate(std::size_t bytes, std::size_t align = kAlignment) {
    if (bytes == 0) bytes = 1;
    while (cursor_ < chunks_.size()) {
      Chunk& c = chunks_[cursor_];
      const std::size_t base =
          (reinterpret_cast<std::uintptr_t>(c.mem) + c.used + (align - 1)) &
          ~(align - 1);
      const std::size_t offset =
          base - reinterpret_cast<std::uintptr_t>(c.mem);
      if (offset + bytes <= c.size) {
        c.used = offset + bytes;
        return c.mem + offset;
      }
      ++cursor_; // retained chunk full; try the next one
    }
    grow(bytes + align);
    Chunk& c = chunks_[cursor_];
    const std::size_t base =
        (reinterpret_cast<std::uintptr_t>(c.mem) + (align - 1)) &
        ~(align - 1);
    const std::size_t offset = base - reinterpret_cast<std::uintptr_t>(c.mem);
    c.used = offset + bytes;
    return c.mem + offset;
  }

  /// Typed span of `n` default-initialised elements (trivial T only: the
  /// arena never runs destructors).
  template <typename T>
  std::span<T> alloc_span(std::size_t n, std::size_t align = kAlignment) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena memory is reclaimed without running destructors");
    if (n == 0) return {};
    auto* p = static_cast<T*>(
        allocate(n * sizeof(T), std::max(align, alignof(T))));
    for (std::size_t i = 0; i < n; ++i) new (p + i) T{};
    return {p, n};
  }

  /// Rewind to empty, retaining capacity. When the previous launch
  /// overflowed into extra chunks they are coalesced into one chunk large
  /// enough for the whole high-water footprint, so the steady state is a
  /// single chunk and zero heap traffic.
  void reset() {
    if (chunks_.size() > 1) {
      std::size_t total = 0;
      for (Chunk& c : chunks_) {
        total += c.size;
        release(c);
      }
      chunks_.clear();
      chunks_.push_back(acquire(total));
    } else if (!chunks_.empty()) {
      chunks_.front().used = 0;
    }
    cursor_ = 0;
  }

  /// Number of heap allocations performed since construction. Stable after
  /// warm-up — the zero-allocation invariant the runtime tests assert.
  [[nodiscard]] std::uint64_t heap_allocations() const {
    return heap_allocations_;
  }

  /// Total bytes currently owned (across all chunks).
  [[nodiscard]] std::size_t capacity() const {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }

  /// Bytes handed out since the last reset().
  [[nodiscard]] std::size_t used() const {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) total += c.used;
    return total;
  }

  /// Fault-injection seam (process-wide, all arenas): consulted on the
  /// cold grow() path just before a fresh heap chunk would be acquired.
  /// Returning false makes the allocation fail with std::bad_alloc — the
  /// testkit drives the arena-exhaustion error path this way. The hot bump
  /// path never reaches grow(), so a null hook (the default) costs nothing
  /// in steady state.
  using GrowHook = bool (*)(void* ctx, std::size_t bytes);
  static void set_grow_hook(GrowHook hook, void* ctx) {
    if (hook == nullptr) {
      grow_hook().store(nullptr, std::memory_order_release);
      grow_hook_ctx().store(nullptr, std::memory_order_release);
    } else {
      grow_hook_ctx().store(ctx, std::memory_order_release);
      grow_hook().store(hook, std::memory_order_release);
    }
  }

private:
  struct Chunk {
    std::byte* mem = nullptr;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  // Chunks are mapped from the OS directly (arena.cpp; page-aligned, so
  // kAlignment holds), not taken from malloc. They are large and
  // long-lived, and a coalescing reset frees the outgrown ones: freed
  // through glibc malloc, each raised its dynamic mmap threshold, after
  // which later N-sized buffers of every thread landed in per-thread heaps
  // and stayed resident.
  static std::byte* map_chunk(std::size_t bytes);
  static void unmap_chunk(std::byte* mem, std::size_t bytes);

  Chunk acquire(std::size_t bytes) {
    ++heap_allocations_;
    Chunk c;
    c.size = bytes;
    c.mem = map_chunk(bytes);
    return c;
  }

  static void release(Chunk& c) {
    unmap_chunk(c.mem, c.size);
    c.mem = nullptr;
  }

  void grow(std::size_t at_least) {
    const std::size_t next =
        std::max({at_least, capacity(), kMinChunk});
    if (const GrowHook hook = grow_hook().load(std::memory_order_acquire)) {
      if (!hook(grow_hook_ctx().load(std::memory_order_acquire), next)) {
        throw std::bad_alloc();
      }
    }
    chunks_.push_back(acquire(next));
    cursor_ = chunks_.size() - 1;
  }

  static std::atomic<GrowHook>& grow_hook() {
    static std::atomic<GrowHook> hook{nullptr};
    return hook;
  }
  static std::atomic<void*>& grow_hook_ctx() {
    static std::atomic<void*> ctx{nullptr};
    return ctx;
  }

  std::vector<Chunk> chunks_;
  std::size_t cursor_ = 0; ///< chunk currently bump-allocating
  std::uint64_t heap_allocations_ = 0;
};

/// Minimal push-back vector backed by an Arena: the traversal frontiers of
/// walkTree grow during warm-up and then reuse the retained arena chunk,
/// where the previous implementation re-allocated std::vector storage on
/// every call.
template <typename T>
class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T>);

public:
  explicit ArenaVector(Arena& arena, std::size_t initial_capacity = 0)
      : arena_(&arena) {
    if (initial_capacity > 0) grow(initial_capacity);
  }

  void push_back(const T& v) {
    if (size_ == cap_) grow(size_ + 1);
    data_[size_++] = v;
  }

  /// Grow to `n` elements (new slots value-initialised); never shrinks
  /// storage.
  void resize(std::size_t n) {
    if (n > cap_) grow(n);
    for (std::size_t i = size_; i < n; ++i) data_[i] = T{};
    size_ = n;
  }

  void clear() { size_ = 0; }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

  friend void swap(ArenaVector& a, ArenaVector& b) {
    std::swap(a.arena_, b.arena_);
    std::swap(a.data_, b.data_);
    std::swap(a.size_, b.size_);
    std::swap(a.cap_, b.cap_);
  }

private:
  void grow(std::size_t need) {
    const std::size_t cap = std::max({need, cap_ * 2, std::size_t{64}});
    auto fresh = arena_->alloc_span<T>(cap);
    for (std::size_t i = 0; i < size_; ++i) fresh[i] = data_[i];
    data_ = fresh.data();
    cap_ = cap;
  }

  Arena* arena_;
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

} // namespace gothic::runtime
