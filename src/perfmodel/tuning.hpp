// Thread-block configuration tuning (Table 2).
//
// GOTHIC micro-benchmarks every kernel over Ttot (threads per block) and
// Tsub (threads per sub-warp reduction/scan) and keeps the fastest pair.
// Here the Tsub dependence comes from genuinely re-running the
// simt-instrumented kernels at each width (the reduction-stage count
// changes), while the Ttot dependence comes from the occupancy model plus
// a block-shape penalty capturing scheduling effects the occupancy number
// alone misses (block-wide sync granularity for large blocks, per-block
// scheduling overhead for small ones).
#pragma once

#include "perfmodel/exec_model.hpp"

#include <vector>

namespace gothic::perfmodel {

/// The five functions of Table 2.
enum class GothicKernel { WalkTree, CalcNode, MakeTree, Predict, Correct };

/// Static launch footprint of each GOTHIC kernel as a function of Ttot.
/// Register counts follow the paper where given (calcNode: 56 registers,
/// Appendix A); shared-memory appetite is per warp (walkTree's interaction
/// list lives in shared memory, §1).
[[nodiscard]] KernelResources kernel_resources(GothicKernel k, int ttot);

/// Multiplicative slowdown from block shape (1.0 = ideal).
[[nodiscard]] double block_shape_penalty(const GpuSpec& gpu, int ttot);

/// One sweep sample: configuration and modelled time.
struct ConfigPoint {
  int ttot = 0;
  int tsub = 0;
  double time_s = 0.0;
};

/// Argmin over a sweep; ties resolve to the earlier entry.
[[nodiscard]] ConfigPoint best_config(const std::vector<ConfigPoint>& sweep);

/// Candidate Ttot values GOTHIC scans.
[[nodiscard]] std::vector<int> ttot_candidates();
/// Candidate Tsub values (powers of two up to a warp).
[[nodiscard]] std::vector<int> tsub_candidates();

} // namespace gothic::perfmodel
