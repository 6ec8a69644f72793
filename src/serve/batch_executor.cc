#include "serve/batch_executor.h"

#include "common/parallel.h"

namespace dpsp {

int BatchExecutor::PlannedShardCount(size_t num_pairs) const {
  return ParallelWorkerCount(num_pairs);
}

Result<std::vector<double>> BatchExecutor::Execute(
    const DistanceOracle& oracle, std::span<const VertexPair> pairs) const {
  return DistanceBatchOf(oracle, pairs);
}

}  // namespace dpsp
