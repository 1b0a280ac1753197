#include "octree/radix_sort.hpp"

#include "runtime/device.hpp"

#include <array>
#include <stdexcept>

namespace gothic::octree {

namespace {
constexpr int kDigitBits = 8;
constexpr int kBuckets = 1 << kDigitBits;
using BucketTable = std::array<std::size_t, kBuckets>;
} // namespace

void radix_sort_pairs(std::span<std::uint64_t> keys,
                      std::span<index_t> payload, int bits,
                      simt::OpCounts* ops, bool rewind_arenas) {
  const std::size_t n = keys.size();
  if (payload.size() != n) {
    throw std::invalid_argument("radix_sort_pairs: size mismatch");
  }
  if (bits < 1 || bits > 64) {
    throw std::invalid_argument("radix_sort_pairs: bits out of range");
  }
  if (n < 2) return;

  const int passes = (bits + kDigitBits - 1) / kDigitBits;

  runtime::Device& dev = runtime::Device::current();
  const int nt = dev.workers();

  // All scratch lives in the context workers' arenas (retained capacity,
  // so steady-state sorts perform zero heap allocations). Every
  // arena-using kernel rewinds the arenas at its start and owns them until
  // it returns. The ping-pong buffers and the per-worker table pointers
  // come from worker 0; each worker's histogram/offset pair sits in that
  // worker's own arena so the counting and scatter phases touch only
  // worker-local cache lines.
  if (rewind_arenas) {
    for (int t = 0; t < nt; ++t) dev.context_worker(t).arena.reset();
  }
  runtime::Arena& shared = dev.context_worker(0).arena;
  std::span<std::uint64_t> tmp_keys = shared.alloc_span<std::uint64_t>(n);
  std::span<index_t> tmp_payload = shared.alloc_span<index_t>(n);
  std::span<BucketTable*> hist = shared.alloc_span<BucketTable*>(
      static_cast<std::size_t>(nt));
  std::span<BucketTable*> offset = shared.alloc_span<BucketTable*>(
      static_cast<std::size_t>(nt));
  for (int t = 0; t < nt; ++t) {
    auto tables = dev.context_worker(t).arena.alloc_span<BucketTable>(2);
    hist[static_cast<std::size_t>(t)] = &tables[0];
    offset[static_cast<std::size_t>(t)] = &tables[1];
  }

  // One cooperative collective per sort. Each worker owns the same
  // contiguous chunk in the histogram and scatter phases (parallel_ranges'
  // static schedule), so the sort stays stable and its output is
  // independent of the worker count; grid syncs separate the phases.
  const bool copy_back = passes % 2 != 0;
  dev.cooperative([&](runtime::Worker& w, runtime::Grid& grid) {
    const runtime::Device::Chunk mine = dev.static_chunk(w.id, 0, n);
    BucketTable& h = *hist[static_cast<std::size_t>(w.id)];
    BucketTable& off = *offset[static_cast<std::size_t>(w.id)];
    std::uint64_t* src_k = keys.data();
    index_t* src_p = payload.data();
    std::uint64_t* dst_k = tmp_keys.data();
    index_t* dst_p = tmp_payload.data();

    for (int pass = 0; pass < passes; ++pass) {
      const int shift = pass * kDigitBits;
      h.fill(0);
      for (std::size_t i = mine.lo; i < mine.hi; ++i) {
        ++h[(src_k[i] >> shift) & (kBuckets - 1)];
      }
      grid.sync();

      // Exclusive scan over (bucket, worker) pairs — bucket-major so equal
      // digits preserve chunk order (stability).
      if (w.id == 0) {
        std::size_t running = 0;
        for (int b = 0; b < kBuckets; ++b) {
          for (int t = 0; t < nt; ++t) {
            (*offset[static_cast<std::size_t>(t)])[b] = running;
            running += (*hist[static_cast<std::size_t>(t)])[b];
          }
        }
      }
      grid.sync();

      for (std::size_t i = mine.lo; i < mine.hi; ++i) {
        const auto b = (src_k[i] >> shift) & (kBuckets - 1);
        const std::size_t dst = off[b]++;
        dst_k[dst] = src_k[i];
        dst_p[dst] = src_p[i];
      }
      grid.sync();

      std::swap(src_k, dst_k);
      std::swap(src_p, dst_p);
    }

    // After an odd number of passes the result lives in the temporaries.
    if (copy_back) {
      for (std::size_t i = mine.lo; i < mine.hi; ++i) {
        keys[i] = src_k[i];
        payload[i] = src_p[i];
      }
    }
  });

  if (ops != nullptr) {
    // Device-style accounting, one read+write of the pair per pass plus
    // digit extraction/bookkeeping (matches the memory-bound character of
    // cub::DeviceRadixSort).
    const auto un = static_cast<std::uint64_t>(n);
    const auto up = static_cast<std::uint64_t>(passes);
    ops->bytes_load += up * un * (8 + 4);
    ops->bytes_store += up * un * (8 + 4);
    ops->int_ops += up * un * 6; // shift, mask, histogram inc, offset, 2x addr
  }
}

bool is_sorted_keys(std::span<const std::uint64_t> keys) {
  for (std::size_t i = 1; i < keys.size(); ++i) {
    if (keys[i] < keys[i - 1]) return false;
  }
  return true;
}

} // namespace gothic::octree
