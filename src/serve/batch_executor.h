// Sharded batch execution over released distance oracles — the serving
// layer between a query stream and the DistanceOracle kernels.
//
// A released oracle answers queries by pure reads of an immutable
// structure, so a batch of pairs can be partitioned arbitrarily. The
// executor splits an incoming span into contiguous shards exactly as
// DistanceBatchOf does, runs each shard's slice through the oracle's fused
// serial DistanceInto kernel on a thread ParallelFor starts for the call
// (there is no standing pool), and each kernel writes its own slice of the
// output, so results come back in input order with no merge.
//
// Every shard runs the same serial kernel over the same pairs, so sharded
// and serial results are bit-identical.

#ifndef DPSP_SERVE_BATCH_EXECUTOR_H_
#define DPSP_SERVE_BATCH_EXECUTOR_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "core/distance_oracle.h"

namespace dpsp {

/// Partitions query batches into contiguous shards and runs them across
/// workers.
class BatchExecutor {
 public:
  /// Answers `pairs` through `oracle` with DistanceBatchOf's fan-out,
  /// results in input order. Bit-identical to
  /// DistanceBatchOf(oracle, pairs, 1).
  Result<std::vector<double>> Execute(const DistanceOracle& oracle,
                                      std::span<const VertexPair> pairs) const;

  /// Shards Execute would use for a batch of `num_pairs` (for reports).
  int PlannedShardCount(size_t num_pairs) const;
};

}  // namespace dpsp

#endif  // DPSP_SERVE_BATCH_EXECUTOR_H_
