// Domain decomposition over the space-filling-curve order (DESIGN.md,
// "Step engine").
//
// A K-shard partition is K contiguous ranges of the SFC-sorted body
// array, i.e. K+1 non-decreasing body boundaries B[0]=0 .. B[K]=N.
// Because tree nodes cover contiguous sorted-body ranges, each node is
// either *owned* by exactly one shard (its bodies fit inside one range)
// or is a *top* node: an ancestor whose subtree straddles at least one
// interior boundary. The two sets tile the tree — sharded calcNode runs
// the owned ranges on each shard's device and the (small) top set on the
// coordinator, reproducing the single-device sweep bit-for-bit.
//
// Boundaries are chosen at walk-group granularity so every walk group
// lands wholly inside one shard, weighted by measured per-group walk
// cost (the interaction + MAC counts walk_tree records per group) so
// shard splits track work, not counts.
#pragma once

#include "octree/calc_node.hpp"
#include "octree/tree.hpp"

#include <span>
#include <vector>

namespace gothic::octree {

/// Split items [0, weights.size()) into `shards` contiguous ranges of
/// near-equal positive weight (shard s ends at the first item whose
/// weight prefix sum reaches total*(s+1)/K). Returns shards+1
/// non-decreasing boundaries with front()==0 and back()==weights.size().
/// Falls back to equal-count splits when no weight is positive. Pure and
/// deterministic: depends only on the arguments.
std::vector<std::size_t> partition_weighted(std::span<const double> weights,
                                            int shards);

/// The shard whose body range contains sorted-body index `first` (the
/// first shard s with first < bounds[s+1]; the last shard when `first`
/// is past the end — only empty nodes anchored at N resolve there).
int shard_of_body(std::span<const index_t> body_bounds, index_t first);

/// Bottom-up (deepest level first) runs of the nodes owned by `shard`:
/// nodes whose body range fits inside [bounds[shard], bounds[shard+1]).
/// Empty nodes belong to the shard containing their anchor index, so
/// every node is owned by exactly one shard or is a top node, never
/// both. Owned internal nodes only have owned children (a child's body
/// range is contained in its parent's), so the returned ranges are
/// self-contained for calc_node_ranges.
std::vector<NodeRange> owned_node_ranges(const Octree& tree,
                                         std::span<const index_t> body_bounds,
                                         int shard);

/// Bottom-up runs of the top nodes: nodes with at least one interior
/// shard boundary strictly inside their body range. Their children are
/// owned nodes or smaller top nodes, so after the per-shard owned sweeps
/// a single bottom-up pass over these ranges finishes the tree.
std::vector<NodeRange> top_node_ranges(const Octree& tree,
                                       std::span<const index_t> body_bounds);

} // namespace gothic::octree
