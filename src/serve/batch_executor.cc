#include "serve/batch_executor.h"

#include <algorithm>

#include "common/parallel.h"

namespace dpsp {

int BatchExecutor::PlannedShardCount(size_t num_pairs) const {
  if (num_pairs == 0) return 1;
  size_t by_size = std::max<size_t>(
      1, num_pairs / std::max<size_t>(1, options_.min_shard_pairs));
  if (options_.num_shards > 0) {
    return static_cast<int>(
        std::min(by_size, static_cast<size_t>(options_.num_shards)));
  }
  return ParallelWorkerCount(num_pairs, options_.max_threads,
                             std::max<size_t>(1, options_.min_shard_pairs));
}

Result<std::vector<double>> BatchExecutor::Execute(
    const DistanceOracle& oracle, std::span<const VertexPair> pairs) const {
  std::vector<double> out(pairs.size(), 0.0);
  // Empty and single-pair batches bypass shard planning entirely: no
  // worker spawn — the empty result is well-defined and one pair runs the
  // serial kernel inline on the calling thread.
  if (pairs.empty()) return out;
  if (pairs.size() == 1) {
    DPSP_RETURN_IF_ERROR(oracle.DistanceInto(pairs, out.data()));
    return out;
  }
  // Shard s owns one chunk of the input span, so the merge is the
  // identity — each kernel writes its slice of `out`.
  const size_t num_shards =
      static_cast<size_t>(PlannedShardCount(pairs.size()));
  const size_t chunk = (pairs.size() + num_shards - 1) / num_shards;
  DPSP_RETURN_IF_ERROR(ParallelForStatus(
      num_shards, options_.max_threads,
      [&](size_t begin, size_t end) {
        for (size_t s = begin; s < end; ++s) {
          size_t lo = s * chunk;
          size_t hi = std::min(pairs.size(), lo + chunk);
          if (lo >= hi) continue;
          DPSP_RETURN_IF_ERROR(oracle.DistanceInto(
              pairs.subspan(lo, hi - lo), out.data() + lo));
        }
        return Status::Ok();
      },
      /*min_items_per_worker=*/1));
  return out;
}

}  // namespace dpsp
