#include "core/hld_oracle.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "common/table.h"
#include "core/released_state.h"
#include "dp/laplace_mechanism.h"
#include "graph/tree.h"

namespace dpsp {

Result<std::unique_ptr<HldTreeOracle>> HldTreeOracle::Build(
    const Graph& graph, const EdgeWeights& w, const PrivacyParams& params,
    Rng* rng, VertexId root) {
  DPSP_RETURN_IF_ERROR(params.Validate());
  DPSP_RETURN_IF_ERROR(graph.ValidateNonNegativeWeights(w));
  if (root == -1) root = 0;
  DPSP_ASSIGN_OR_RETURN(RootedTree tree, RootedTree::FromGraph(graph, root));

  auto oracle = std::unique_ptr<HldTreeOracle>(new HldTreeOracle());
  int n = tree.num_vertices();
  oracle->num_vertices_ = n;
  oracle->chain_of_.assign(static_cast<size_t>(n), -1);
  oracle->pos_in_chain_.assign(static_cast<size_t>(n), 0);

  // Heavy child of each vertex: the child with the largest subtree.
  std::vector<VertexId> heavy(static_cast<size_t>(n), -1);
  for (VertexId v = 0; v < n; ++v) {
    int best = 0;
    for (VertexId c : tree.children(v)) {
      if (tree.subtree_size(c) > best) {
        best = tree.subtree_size(c);
        heavy[static_cast<size_t>(v)] = c;
      }
    }
  }

  // Assign chains in BFS order (parents first).
  std::vector<std::vector<VertexId>> members;  // chain -> vertices by pos
  for (VertexId v : tree.bfs_order()) {
    VertexId p = tree.parent(v);
    if (p == -1 || heavy[static_cast<size_t>(p)] != v) {
      oracle->chain_of_[static_cast<size_t>(v)] =
          static_cast<int>(members.size());
      oracle->pos_in_chain_[static_cast<size_t>(v)] = 0;
      oracle->chain_head_.push_back(v);
      members.emplace_back(1, v);
    } else {
      int c = oracle->chain_of_[static_cast<size_t>(p)];
      oracle->chain_of_[static_cast<size_t>(v)] = c;
      oracle->pos_in_chain_[static_cast<size_t>(v)] =
          oracle->pos_in_chain_[static_cast<size_t>(p)] + 1;
      members[static_cast<size_t>(c)].push_back(v);
    }
  }

  // Joint sensitivity: an edge is either heavy (one block per level of its
  // chain's structure) or light (one released scalar), so the release's
  // sensitivity is max over chains of #levels, at least 1.
  int max_levels = 1;
  for (const auto& chain : members) {
    max_levels = std::max(
        max_levels, NoisyDyadicRangeSums::LevelsForSize(
                        static_cast<int>(chain.size()) - 1));
  }
  DPSP_ASSIGN_OR_RETURN(
      double scale,
      LaplaceScale(static_cast<double>(max_levels), params));
  oracle->noise_scale_ = scale;
  oracle->sensitivity_ = max_levels;
  oracle->release_epsilon_ = params.epsilon;

  // Released structures: per-chain dyadic sums over the heavy edges, plus
  // one noisy scalar per light (chain-head parent) edge.
  oracle->light_noisy_.assign(members.size(), 0.0);
  for (size_t c = 0; c < members.size(); ++c) {
    const std::vector<VertexId>& chain = members[c];
    std::vector<double> values;
    values.reserve(chain.size() - 1);
    for (size_t p = 1; p < chain.size(); ++p) {
      values.push_back(
          w[static_cast<size_t>(tree.parent_edge(chain[p]))]);
    }
    oracle->chains_.emplace_back(values, scale, rng);
    VertexId head = chain[0];
    if (tree.parent(head) != -1) {
      oracle->light_noisy_[c] =
          w[static_cast<size_t>(tree.parent_edge(head))] +
          rng->Laplace(scale);
    }
  }

  for (const NoisyDyadicRangeSums& chain : oracle->chains_) {
    oracle->num_noisy_values_ += chain.num_blocks();
  }
  for (size_t c = 0; c < members.size(); ++c) {
    if (tree.parent(oracle->chain_head_[c]) != -1) {
      ++oracle->num_noisy_values_;
    }
  }

  // Update-path indexes: dirty edge -> child endpoint, and flat chain
  // membership (for recomputing ascent caches of dirty chains).
  oracle->edge_child_.assign(static_cast<size_t>(graph.num_edges()), -1);
  for (VertexId v = 0; v < n; ++v) {
    EdgeId e = tree.parent_edge(v);
    if (e != -1) oracle->edge_child_[static_cast<size_t>(e)] = v;
  }
  oracle->chain_member_offset_.assign(members.size() + 1, 0);
  for (size_t c = 0; c < members.size(); ++c) {
    oracle->chain_member_offset_[c + 1] =
        oracle->chain_member_offset_[c] +
        static_cast<uint32_t>(members[c].size());
  }
  oracle->chain_member_list_.reserve(static_cast<size_t>(n));
  for (const std::vector<VertexId>& chain : members) {
    oracle->chain_member_list_.insert(oracle->chain_member_list_.end(),
                                      chain.begin(), chain.end());
  }

  // Ascent caches (post-processing of the released blocks, no new noise):
  // climbing off the top of v's chain costs the chain prefix up to v plus
  // the light edge above the head, and lands on the head's parent — on a
  // chain one light depth up. Chains are numbered parents first, so the
  // parent chain's depth is known when its child chain is reached.
  oracle->head_parent_.resize(members.size());
  oracle->chain_light_depth_.assign(members.size(), 0);
  for (size_t c = 0; c < members.size(); ++c) {
    const VertexId parent = tree.parent(oracle->chain_head_[c]);
    oracle->head_parent_[c] = parent;
    if (parent != -1) {
      oracle->chain_light_depth_[c] =
          oracle->chain_light_depth_[static_cast<size_t>(
              oracle->chain_of_[static_cast<size_t>(parent)])] +
          1;
    }
  }
  oracle->ascent_cost_.assign(static_cast<size_t>(n), 0.0);
  for (size_t c = 0; c < members.size(); ++c) {
    oracle->RecomputeAscentCosts(static_cast<int>(c));
  }
  return oracle;
}

Result<std::unique_ptr<HldTreeOracle>> HldTreeOracle::Build(
    const Graph& graph, const EdgeWeights& w, ReleaseContext& ctx,
    VertexId root) {
  return ctx.MeteredBuild(
      kName, [&] { return Build(graph, w, ctx.params(), ctx.rng(), root); },
      [](const HldTreeOracle& oracle, ReleaseTelemetry& t) {
        t.sensitivity = oracle.sensitivity();
        t.noise_scale = oracle.noise_scale();
        t.noise_draws = oracle.num_noisy_values();
      });
}

Status HldTreeOracle::ApplyWeightUpdates(
    std::span<const EdgeWeightDelta> deltas, ReleaseContext& ctx) {
  update_stats_ = UpdateStats{};
  if (deltas.empty()) return Status::Ok();
  const int num_edges = num_vertices_ - 1;

  // Final weight per dirty edge (last delta wins), then grouped by chain
  // in ascending (chain, position) order so the redraw walk — and with it
  // the noise stream — is deterministic for a given epoch.
  std::map<EdgeId, double> final_weight;
  for (const EdgeWeightDelta& d : deltas) {
    if (d.edge < 0 || d.edge >= num_edges) {
      return Status::InvalidArgument(StrFormat(
          "update edge %d out of range [0, %d)", d.edge, num_edges));
    }
    if (!(d.new_weight >= 0.0) || std::isinf(d.new_weight)) {
      return Status::InvalidArgument(
          "updated edge weights must be finite and non-negative");
    }
    final_weight[d.edge] = d.new_weight;
  }

  std::map<int, std::vector<std::pair<int, double>>> heavy;  // chain -> ups
  std::map<int, double> light;  // chain -> new light-edge weight
  for (const auto& [edge, weight] : final_weight) {
    VertexId v = edge_child_[static_cast<size_t>(edge)];
    int c = chain_of_[static_cast<size_t>(v)];
    int pos = pos_in_chain_[static_cast<size_t>(v)];
    if (pos == 0) {
      light[c] = weight;  // the edge above the chain head: one scalar
    } else {
      heavy[c].emplace_back(pos - 1, weight);
    }
  }

  // Planning pass (no mutation): the epoch's sensitivity g is the deepest
  // dirty stack — every dirty heavy edge sits in one block per level of
  // its chain, a dirty light edge in exactly one scalar — and the dirty
  // block count prices the redraw. Charged in the release's natural
  // currency: the redraw at the build-time Laplace scale L*l1/eps is
  // exactly (eps * g / L)-DP.
  int g = light.empty() ? 0 : 1;
  int dirty_blocks = static_cast<int>(light.size());
  for (const auto& [c, updates] : heavy) {
    const NoisyDyadicRangeSums& chain = chains_[static_cast<size_t>(c)];
    g = std::max(g, chain.num_levels());
    std::vector<int> indices;
    indices.reserve(updates.size());
    for (const auto& [index, weight] : updates) indices.push_back(index);
    dirty_blocks += chain.DirtyBlockCount(indices);
  }
  double charged_epsilon =
      release_epsilon_ * static_cast<double>(g) / sensitivity_;
  PrivacyLoss loss = PrivacyLoss::Pure(charged_epsilon);

  Status metered = ctx.MeteredUpdate(
      std::string(kName) + "-update", loss,
      [&] {
        for (const auto& [c, updates] : heavy) {
          chains_[static_cast<size_t>(c)].ApplyPointUpdates(updates,
                                                            ctx.rng());
        }
        for (const auto& [c, weight] : light) {
          light_noisy_[static_cast<size_t>(c)] =
              weight + ctx.rng()->Laplace(noise_scale_);
        }
        // Ascent caches of the dirty chains: post-processing of the
        // redrawn blocks, no new noise. (std::map iteration keeps the
        // chain walk ordered; a chain dirty in both ways is recomputed
        // once — the second pass overwrites with identical values.)
        for (const auto& [c, updates] : heavy) RecomputeAscentCosts(c);
        for (const auto& [c, weight] : light) {
          if (heavy.find(c) == heavy.end()) RecomputeAscentCosts(c);
        }
        return Status::Ok();
      },
      [&](ReleaseTelemetry& t) {
        t.sensitivity = g;
        t.noise_scale = noise_scale_;
        t.noise_draws = dirty_blocks;
      });
  DPSP_RETURN_IF_ERROR(metered);
  update_stats_.dirty_edges = static_cast<int>(final_weight.size());
  update_stats_.dirty_blocks = dirty_blocks;
  update_stats_.sensitivity = g;
  update_stats_.charged_epsilon = charged_epsilon;
  return Status::Ok();
}

void HldTreeOracle::RecomputeAscentCosts(int c) {
  const uint32_t begin = chain_member_offset_[static_cast<size_t>(c)];
  const uint32_t end = chain_member_offset_[static_cast<size_t>(c) + 1];
  const int m = static_cast<int>(end - begin);
  if (m == 0) return;
  // Chain member p sits at position p, so its ascent cost is the noisy
  // prefix over [0, p) plus the chain's light edge.
  const NoisyDyadicRangeSums& chain = chains_[static_cast<size_t>(c)];
  const double light = light_noisy_[static_cast<size_t>(c)];
  for (int p = 0; p < m; ++p) {
    VertexId v = chain_member_list_[begin + static_cast<uint32_t>(p)];
    ascent_cost_[static_cast<size_t>(v)] = chain.PrefixSumUnchecked(p) + light;
  }
}

namespace {

// Pairs per block of the batch kernel. The per-endpoint scratch of one
// block (2 x 256 endpoints, about 24 KB) lives on the stack.
constexpr int kBlockPairs = 256;
constexpr int kBlockEnds = 2 * kBlockPairs;

}  // namespace

Status HldTreeOracle::DistanceInto(std::span<const VertexPair> pairs,
                                   double* out) const {
  // Blocked, level-synchronous kernel. Per block: climb rounds, each
  // picking every endpoint MustClimb selects and then crossing them all,
  // then rounds of one dyadic block per endpoint with range left. Each
  // round's loads are independent across endpoints, so their cache misses
  // overlap, and the "done" tests only compact the worklists instead of
  // ending a loop the branch predictor cannot guess. Every endpoint adds
  // the same values in the same order as Distance(), so the answers are
  // bit-identical to it.
  const unsigned n = static_cast<unsigned>(num_vertices_);
  // Endpoint 2j is pair j's u, 2j + 1 its v.
  Climber ends[kBlockEnds];
  const NoisyDyadicRangeSums* sums[kBlockPairs];  // the LCA chain's blocks
  double range[kBlockEnds];
  int lo[kBlockEnds];
  int hi[kBlockEnds];
  uint16_t work[kBlockEnds];   // live pairs or endpoints, compacted per round
  uint16_t cross[kBlockEnds];  // the endpoints crossing this round

  for (size_t done = 0; done < pairs.size(); done += kBlockPairs) {
    const VertexPair* block = pairs.data() + done;
    const int count =
        static_cast<int>(std::min<size_t>(kBlockPairs, pairs.size() - done));

    // Climb phase, after the bounds check. A pair stays live while its
    // endpoints are on different chains.
    int live = 0;
    for (int j = 0; j < count; ++j) {
      const auto& [u, v] = block[j];
      if (static_cast<unsigned>(u) >= n || static_cast<unsigned>(v) >= n) {
        return Status::InvalidArgument("vertex out of range");
      }
      ends[2 * j] = StartAt(u);
      ends[2 * j + 1] = StartAt(v);
      work[live] = static_cast<uint16_t>(j);
      live += ends[2 * j].chain != ends[2 * j + 1].chain;
    }
    while (live > 0) {
      int crossing = 0;
      int next_live = 0;
      for (int k = 0; k < live; ++k) {
        const int j = work[k];
        const Climber& a = ends[2 * j];
        const Climber& b = ends[2 * j + 1];
        cross[crossing] = static_cast<uint16_t>(2 * j);
        crossing += MustClimb(a, b);
        cross[crossing] = static_cast<uint16_t>(2 * j + 1);
        crossing += MustClimb(b, a);
      }
      for (int k = 0; k < crossing; ++k) CrossLightEdge(ends[cross[k]]);
      for (int k = 0; k < live; ++k) {
        const int j = work[k];
        work[next_live] = static_cast<uint16_t>(j);
        next_live += ends[2 * j].chain != ends[2 * j + 1].chain;
      }
      live = next_live;
    }

    // Range phase: both endpoints are on the LCA's chain, the LCA at the
    // shallower position. Each round, every endpoint with range left takes
    // one dyadic block of [pos(lca), pos(at)).
    live = 0;
    for (int j = 0; j < count; ++j) {
      sums[j] = &chains_[static_cast<size_t>(ends[2 * j].chain)];
      const int pos_u = pos_in_chain_[static_cast<size_t>(ends[2 * j].at)];
      const int pos_v =
          pos_in_chain_[static_cast<size_t>(ends[2 * j + 1].at)];
      const int lca = std::min(pos_u, pos_v);
      lo[2 * j] = lo[2 * j + 1] = lca;
      hi[2 * j] = pos_u;
      hi[2 * j + 1] = pos_v;
      range[2 * j] = range[2 * j + 1] = 0.0;
      // At most one endpoint of a pair has range left.
      work[live] = static_cast<uint16_t>(2 * j + (pos_u == lca));
      live += pos_u != pos_v;
    }
    while (live > 0) {
      int next_live = 0;
      for (int k = 0; k < live; ++k) {
        const int e = work[k];
        range[e] += sums[e / 2]->TakeBlock(&lo[e], hi[e]);
        work[next_live] = static_cast<uint16_t>(e);
        next_live += lo[e] < hi[e];
      }
      live = next_live;
    }

    for (int j = 0; j < count; ++j) {
      out[done + static_cast<size_t>(j)] =
          (ends[2 * j].climb + range[2 * j]) +
          (ends[2 * j + 1].climb + range[2 * j + 1]);
    }
  }
  return Status::Ok();
}

Status HldTreeOracle::SaveReleasedState(
    std::vector<ReleasedSection>* out) const {
  // Every noisy value of the release: the per-chain dyadic blocks
  // (concatenated in chain order, with per-chain counts so restore can
  // slice them back), and the light-edge scalars. Everything else —
  // chains, light depths, membership, ascent caches — is deterministic
  // post-processing of the public topology and the blocks.
  std::vector<double> blocks;
  std::vector<double> counts;
  counts.reserve(chains_.size());
  for (const NoisyDyadicRangeSums& chain : chains_) {
    NoisyDyadicRangeSums::FlatView view = chain.Flat();
    const size_t count =
        view.num_levels == 0
            ? 0
            : static_cast<size_t>(view.level_offset[view.num_levels]);
    counts.push_back(static_cast<double>(count));
    blocks.insert(blocks.end(), view.blocks, view.blocks + count);
  }
  out->push_back(released_state::Pack<double>(
      "chain-blocks", std::span<const double>(blocks)));
  out->push_back(released_state::Pack<double>(
      "chain-block-counts", std::span<const double>(counts)));
  out->push_back(released_state::Pack<double>(
      "light-noisy",
      std::span<const double>(light_noisy_.data(), light_noisy_.size())));
  out->push_back(released_state::PackScalars(
      "meta", {static_cast<double>(chain_head_[0]), noise_scale_,
               static_cast<double>(sensitivity_),
               static_cast<double>(num_noisy_values_), release_epsilon_}));
  return Status::Ok();
}

Result<std::unique_ptr<DistanceOracle>> HldTreeOracle::FromReleasedState(
    const Graph& graph, const EdgeWeights& w,
    std::span<const ReleasedSectionView> sections) {
  DPSP_ASSIGN_OR_RETURN(std::span<const double> meta,
                        released_state::Require<double>(sections, "meta", 5));
  VertexId root;
  DPSP_ASSIGN_OR_RETURN(root, released_state::AsInt(meta[0], "hld root"));
  if (root < 0 || root >= graph.num_vertices()) {
    return Status::InvalidArgument("snapshot hld root is out of range");
  }
  const double noise_scale = meta[1];
  int sensitivity;
  DPSP_ASSIGN_OR_RETURN(sensitivity,
                        released_state::AsInt(meta[2], "hld sensitivity"));
  int num_noisy_values;
  DPSP_ASSIGN_OR_RETURN(num_noisy_values,
                        released_state::AsInt(meta[3], "hld noise draws"));
  const double release_epsilon = meta[4];
  if (!(release_epsilon > 0.0)) {
    return Status::InvalidArgument("snapshot hld release epsilon must be > 0");
  }
  if (!(noise_scale > 0.0) || std::isinf(noise_scale)) {
    return Status::InvalidArgument(
        "snapshot hld noise scale must be finite and > 0");
  }

  // Rebuild the deterministic skeleton (chains, light depths, membership)
  // with a throwaway noise stream, then overwrite every noisy value with
  // the persisted image. The decomposition depends only on the public
  // topology, never on the noise, so this is exact.
  Rng scratch_rng(0);
  PrivacyParams scratch_params;
  scratch_params.epsilon = release_epsilon;
  DPSP_ASSIGN_OR_RETURN(
      std::unique_ptr<HldTreeOracle> oracle,
      Build(graph, w, scratch_params, &scratch_rng, root));

  // Sensitivity and draw count are functions of the public topology: a
  // snapshot that disagrees with the rebuilt skeleton would misprice every
  // later epoch (a sensitivity of 0 makes it charge eps * g / 0 = inf).
  if (sensitivity != oracle->sensitivity_ ||
      num_noisy_values != oracle->num_noisy_values_) {
    return Status::InvalidArgument(StrFormat(
        "snapshot hld sensitivity %d and noise draws %d do not match the "
        "graph's %d and %d",
        sensitivity, num_noisy_values, oracle->sensitivity_,
        oracle->num_noisy_values_));
  }

  const size_t num_chains = oracle->chains_.size();
  DPSP_ASSIGN_OR_RETURN(
      std::span<const double> counts,
      released_state::Require<double>(sections, "chain-block-counts",
                                      static_cast<long>(num_chains)));
  DPSP_ASSIGN_OR_RETURN(
      std::span<const double> light,
      released_state::Require<double>(sections, "light-noisy",
                                      static_cast<long>(num_chains)));
  DPSP_ASSIGN_OR_RETURN(std::span<const double> blocks,
                        released_state::Require<double>(sections,
                                                        "chain-blocks"));

  size_t offset = 0;
  for (size_t c = 0; c < num_chains; ++c) {
    int count;
    DPSP_ASSIGN_OR_RETURN(
        count, released_state::AsInt(counts[c], "chain block count"));
    NoisyDyadicRangeSums& chain = oracle->chains_[c];
    NoisyDyadicRangeSums::FlatView view = chain.Flat();
    const size_t expected =
        view.num_levels == 0
            ? 0
            : static_cast<size_t>(view.level_offset[view.num_levels]);
    if (count < 0 || static_cast<size_t>(count) != expected) {
      return Status::InvalidArgument(StrFormat(
          "snapshot chain %zu has %d blocks, the graph implies %zu", c,
          count, expected));
    }
    if (offset + expected > blocks.size()) {
      return Status::InvalidArgument(
          "snapshot chain-blocks section is shorter than its counts imply");
    }
    DPSP_RETURN_IF_ERROR(
        chain.RestoreBlocks(blocks.subspan(offset, expected)));
    offset += expected;
  }
  if (offset != blocks.size()) {
    return Status::InvalidArgument(
        "snapshot chain-blocks section is longer than its counts imply");
  }
  std::copy(light.begin(), light.end(), oracle->light_noisy_.begin());
  oracle->noise_scale_ = noise_scale;
  oracle->release_epsilon_ = release_epsilon;
  for (size_t c = 0; c < num_chains; ++c) {
    oracle->RecomputeAscentCosts(static_cast<int>(c));
  }
  return std::unique_ptr<DistanceOracle>(std::move(oracle));
}

Result<double> HldTreeOracle::Distance(VertexId u, VertexId v) const {
  if (u < 0 || u >= num_vertices_ || v < 0 || v >= num_vertices_) {
    return Status::InvalidArgument("vertex out of range");
  }
  Climber a = StartAt(u);
  Climber b = StartAt(v);
  while (a.chain != b.chain) {
    const bool a_climbs = MustClimb(a, b);
    const bool b_climbs = MustClimb(b, a);
    if (a_climbs) CrossLightEdge(a);
    if (b_climbs) CrossLightEdge(b);
  }
  // Both are on the LCA's chain, the LCA at the shallower position.
  const NoisyDyadicRangeSums& sums = chains_[static_cast<size_t>(a.chain)];
  const int pos_a = pos_in_chain_[static_cast<size_t>(a.at)];
  const int pos_b = pos_in_chain_[static_cast<size_t>(b.at)];
  const int lca = std::min(pos_a, pos_b);
  return (a.climb + sums.RangeSumUnchecked(lca, pos_a)) +
         (b.climb + sums.RangeSumUnchecked(lca, pos_b));
}

double HldTreeOracle::ErrorBound(int num_vertices,
                                 const PrivacyParams& params, double gamma) {
  DPSP_CHECK_MSG(num_vertices >= 1 && gamma > 0.0 && gamma < 1.0,
                 "invalid error bound arguments");
  int levels = std::max(
      1, NoisyDyadicRangeSums::LevelsForSize(num_vertices - 1));
  double scale = static_cast<double>(levels) * params.neighbor_l1_bound /
                 params.epsilon;
  // Two ascents, each crossing <= levels chains, each chain costing
  // <= 2 levels blocks plus one light edge.
  int summands = 2 * levels * (2 * levels + 1);
  return LaplaceSumBound(scale, summands, gamma).value();
}

}  // namespace dpsp
