#include "octree/morton.hpp"

#include "runtime/device.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace gothic::octree {

std::uint64_t expand_bits_3(std::uint32_t v) {
  std::uint64_t x = v & 0x1fffffu; // 21 bits
  x = (x | (x << 32)) & 0x1f00000000ffffull;
  x = (x | (x << 16)) & 0x1f0000ff0000ffull;
  x = (x | (x << 8)) & 0x100f00f00f00f00full;
  x = (x | (x << 4)) & 0x10c30c30c30c30c3ull;
  x = (x | (x << 2)) & 0x1249249249249249ull;
  return x;
}

std::uint64_t morton_encode(std::uint32_t ix, std::uint32_t iy,
                            std::uint32_t iz) {
  return (expand_bits_3(ix) << 2) | (expand_bits_3(iy) << 1) |
         expand_bits_3(iz);
}

namespace {
std::uint32_t compact_bits_3(std::uint64_t x) {
  x &= 0x1249249249249249ull;
  x = (x | (x >> 2)) & 0x10c30c30c30c30c3ull;
  x = (x | (x >> 4)) & 0x100f00f00f00f00full;
  x = (x | (x >> 8)) & 0x1f0000ff0000ffull;
  x = (x | (x >> 16)) & 0x1f00000000ffffull;
  x = (x | (x >> 32)) & 0x1fffffull;
  return static_cast<std::uint32_t>(x);
}
} // namespace

void morton_decode(std::uint64_t key, std::uint32_t& ix, std::uint32_t& iy,
                   std::uint32_t& iz) {
  ix = compact_bits_3(key >> 2);
  iy = compact_bits_3(key >> 1);
  iz = compact_bits_3(key);
}

BoundingCube compute_bounding_cube(std::span<const real> x,
                                   std::span<const real> y,
                                   std::span<const real> z) {
  if (x.empty() || x.size() != y.size() || x.size() != z.size()) {
    throw std::invalid_argument("compute_bounding_cube: bad spans");
  }
  // Min/max reduction: each worker scans its contiguous chunk, then the
  // chunk extents combine in chunk order. For positions without NaN that
  // is the serial scan's result bit for bit (equal values, signed zeros
  // included, resolve to the first one seen either way).
  struct Extent {
    real lo_x, hi_x, lo_y, hi_y, lo_z, hi_z;
    void add(const Extent& o) {
      lo_x = std::min(lo_x, o.lo_x); hi_x = std::max(hi_x, o.hi_x);
      lo_y = std::min(lo_y, o.lo_y); hi_y = std::max(hi_y, o.hi_y);
      lo_z = std::min(lo_z, o.lo_z); hi_z = std::max(hi_z, o.hi_z);
    }
  };
  runtime::Device& dev = runtime::Device::current();
  std::array<Extent, runtime::Device::kMaxWorkers> part;
  dev.parallel_ranges(0, x.size(), [&](runtime::Worker& w, std::size_t lo,
                                       std::size_t hi) {
    Extent e{x[lo], x[lo], y[lo], y[lo], z[lo], z[lo]};
    for (std::size_t i = lo + 1; i < hi; ++i) {
      e.lo_x = std::min(e.lo_x, x[i]); e.hi_x = std::max(e.hi_x, x[i]);
      e.lo_y = std::min(e.lo_y, y[i]); e.hi_y = std::max(e.hi_y, y[i]);
      e.lo_z = std::min(e.lo_z, z[i]); e.hi_z = std::max(e.hi_z, z[i]);
    }
    part[static_cast<std::size_t>(w.id)] = e;
  });
  const std::size_t chunks =
      (x.size() + dev.chunk_size(0, x.size()) - 1) /
      dev.chunk_size(0, x.size());
  Extent e = part[0];
  for (std::size_t c = 1; c < chunks; ++c) e.add(part[c]);
  const real lo_x = e.lo_x, hi_x = e.hi_x;
  const real lo_y = e.lo_y, hi_y = e.hi_y;
  const real lo_z = e.lo_z, hi_z = e.hi_z;
  BoundingCube box;
  const real edge =
      std::max({hi_x - lo_x, hi_y - lo_y, hi_z - lo_z, real(1e-30f)});
  // 0.1% padding keeps the maximum coordinate strictly inside the cube so
  // the integer grid index never reaches 2^21.
  box.edge = edge * real(1.001f);
  const real cx = real(0.5f) * (lo_x + hi_x);
  const real cy = real(0.5f) * (lo_y + hi_y);
  const real cz = real(0.5f) * (lo_z + hi_z);
  box.min_x = cx - real(0.5f) * box.edge;
  box.min_y = cy - real(0.5f) * box.edge;
  box.min_z = cz - real(0.5f) * box.edge;
  return box;
}

std::uint64_t morton_key(const BoundingCube& box, real x, real y, real z) {
  const double scale = static_cast<double>(1u << kMortonBits) /
                       static_cast<double>(box.edge);
  auto grid = [scale](real v, real lo) {
    const double g = (static_cast<double>(v) - static_cast<double>(lo)) * scale;
    const double clamped =
        std::clamp(g, 0.0, static_cast<double>((1u << kMortonBits) - 1));
    return static_cast<std::uint32_t>(clamped);
  };
  return morton_encode(grid(x, box.min_x), grid(y, box.min_y),
                       grid(z, box.min_z));
}

void morton_keys(const BoundingCube& box, std::span<const real> x,
                 std::span<const real> y, std::span<const real> z,
                 std::span<std::uint64_t> keys) {
  if (x.size() != keys.size()) {
    throw std::invalid_argument("morton_keys: size mismatch");
  }
  runtime::Device::current().parallel_for(0, x.size(), [&](std::size_t i) {
    keys[i] = morton_key(box, x[i], y[i], z[i]);
  });
}

} // namespace gothic::octree
