#include "perfmodel/tuning.hpp"

#include "util/types.hpp"

#include <algorithm>
#include <stdexcept>

namespace gothic::perfmodel {

KernelResources kernel_resources(GothicKernel k, int ttot) {
  KernelResources r;
  r.threads_per_block = ttot;
  const int warps = ttot / kWarpSize;
  switch (k) {
    case GothicKernel::WalkTree:
      // Traversal state is register-hungry; the per-warp interaction list
      // (128 float4 entries) plus the shared traversal queue head live in
      // shared memory.
      // 128 float4 list entries per warp: at Ttot = 512 this is exactly
      // 32 KiB per block, i.e. 2 resident blocks on P100's 64 KiB and 3 on
      // V100's 96 KiB carve-out (§2.1).
      r.regs_per_thread = 63;
      r.smem_per_block_bytes = warps * 128 * 16;
      break;
    case GothicKernel::CalcNode:
      r.regs_per_thread = 56; // Appendix A
      r.smem_per_block_bytes = warps * 1024;
      break;
    case GothicKernel::MakeTree:
      r.regs_per_thread = 48;
      r.smem_per_block_bytes = warps * 2048;
      break;
    case GothicKernel::Predict:
      r.regs_per_thread = 32;
      r.smem_per_block_bytes = 0;
      break;
    case GothicKernel::Correct:
      r.regs_per_thread = 40;
      r.smem_per_block_bytes = 0;
      break;
  }
  return r;
}

double block_shape_penalty(const GpuSpec& gpu, int ttot) {
  // Per-block scheduling/launch overhead dominates tiny blocks; block-wide
  // synchronisation granularity (more warps stalled per __syncthreads)
  // penalises very large ones. Both effects are mild (a few percent) but
  // break the plateau the pure occupancy model would otherwise show; the
  // coefficients put the dip at the 512-thread blocks GOTHIC tunes to.
  const double small = 0.06 * (64.0 / ttot);
  const double large =
      0.03 * static_cast<double>(ttot) / gpu.max_threads_per_sm;
  return 1.0 + small + large;
}

ConfigPoint best_config(const std::vector<ConfigPoint>& sweep) {
  if (sweep.empty()) throw std::invalid_argument("empty tuning sweep");
  return *std::min_element(sweep.begin(), sweep.end(),
                           [](const ConfigPoint& a, const ConfigPoint& b) {
                             return a.time_s < b.time_s;
                           });
}

std::vector<int> ttot_candidates() { return {128, 256, 512, 1024}; }

std::vector<int> tsub_candidates() { return {4, 8, 16, 32}; }

} // namespace gothic::perfmodel
