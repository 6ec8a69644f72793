#include "core/hld_oracle.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "common/cpu.h"
#include "common/table.h"
#include "core/released_state.h"
#include "core/simd_kernels.h"
#include "dp/laplace_mechanism.h"

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

  oracle->tree_ = std::make_unique<RootedTree>(std::move(tree));
  oracle->lca_ = std::make_unique<EulerTourLca>(*oracle->tree_);

  // Update-path indexes: dirty edge -> child endpoint, and flat chain
  // membership (for recomputing ascent caches of dirty chains).
  oracle->edge_child_.assign(static_cast<size_t>(graph.num_edges()), -1);
  for (VertexId v = 0; v < n; ++v) {
    EdgeId e = oracle->tree_->parent_edge(v);
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
  // the light edge above the head, and lands on the head's parent.
  oracle->head_parent_.resize(members.size());
  for (size_t c = 0; c < members.size(); ++c) {
    oracle->head_parent_[c] = oracle->tree_->parent(oracle->chain_head_[c]);
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
  const int num_edges = tree_->num_vertices() - 1;

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
  // Chain member p sits at position p, so the whole chain's ascent
  // prefixes are the batched prefix sums over 0..m-1 — one call into the
  // (SIMD-dispatched, bit-identical) vector walk instead of m scalar
  // walks.
  std::vector<int> prefixes(static_cast<size_t>(m));
  for (int p = 0; p < m; ++p) prefixes[static_cast<size_t>(p)] = p;
  std::vector<double> sums(static_cast<size_t>(m));
  chains_[static_cast<size_t>(c)].PrefixSumsUnchecked(prefixes, sums.data());
  const double light = light_noisy_[static_cast<size_t>(c)];
  for (int p = 0; p < m; ++p) {
    VertexId v = chain_member_list_[begin + static_cast<uint32_t>(p)];
    ascent_cost_[static_cast<size_t>(v)] =
        sums[static_cast<size_t>(p)] + light;
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
  // Blocked, level-synchronous kernel. Per block: every LCA, then rounds
  // of one chain crossing per still-climbing endpoint, then rounds of one
  // dyadic block per endpoint with range left. Each round's loads are
  // independent across endpoints, so their cache misses overlap, and the
  // per-endpoint "done" test only compacts the worklist instead of ending
  // a loop the branch predictor cannot guess. Every endpoint adds the same
  // values in the same order as DistanceToAncestor, so the answers are
  // bit-identical to Distance().
  static_assert(sizeof(VertexPair) == 2 * sizeof(int32_t),
                "kernels reinterpret VertexPair as two packed int32s");
  const unsigned n = static_cast<unsigned>(tree_->num_vertices());
  const EulerTourLca& lca = *lca_;
#if defined(DPSP_HAVE_AVX2)
  const bool simd_lca = SimdKernelsEnabled() && lca.SimdCompatible();
#endif
  // Endpoint 2j is pair j's u, 2j + 1 its v.
  int32_t z[kBlockPairs];
  VertexId at[kBlockEnds];  // the climbing vertex; ends on the LCA's chain
  int chain[kBlockEnds];    // the chain `at` is on
  int target[kBlockEnds];   // the LCA's chain
  double climb[kBlockEnds];
  const NoisyDyadicRangeSums* sums[kBlockEnds];  // the LCA chain's blocks
  double range[kBlockEnds];
  int lo[kBlockEnds];
  int hi[kBlockEnds];
  uint16_t work[kBlockEnds];  // live endpoints, compacted every round

  for (size_t done = 0; done < pairs.size(); done += kBlockPairs) {
    const VertexPair* block = pairs.data() + done;
    const int count =
        static_cast<int>(std::min<size_t>(kBlockPairs, pairs.size() - done));
    const int ends = 2 * count;

    // LCA phase, with the bounds check.
    bool have_lca = false;
#if defined(DPSP_HAVE_AVX2)
    if (simd_lca) {
      if (simd::LcaBatchAvx2(lca.Flat(),
                             reinterpret_cast<const int32_t*>(block), count,
                             z) >= 0) {
        return Status::InvalidArgument("vertex out of range");
      }
      have_lca = true;
    }
#endif
    if (!have_lca) {
      for (int j = 0; j < count; ++j) {
        const auto& [u, v] = block[j];
        if (static_cast<unsigned>(u) >= n || static_cast<unsigned>(v) >= n) {
          return Status::InvalidArgument("vertex out of range");
        }
        z[j] = lca.LcaUnchecked(u, v);
      }
    }

    // Climb phase: each round, every endpoint still off its LCA's chain
    // pays its cached ascent cost and lands on the head's parent.
    for (int j = 0; j < count; ++j) {
      at[2 * j] = block[j].first;
      at[2 * j + 1] = block[j].second;
      target[2 * j] = target[2 * j + 1] =
          chain_of_[static_cast<size_t>(z[j])];
    }
    int live = 0;
    for (int e = 0; e < ends; ++e) {
      chain[e] = chain_of_[static_cast<size_t>(at[e])];
      climb[e] = 0.0;
      work[live] = static_cast<uint16_t>(e);
      live += chain[e] != target[e];
    }
    while (live > 0) {
      int next_live = 0;
      for (int k = 0; k < live; ++k) {
        const int e = work[k];
        const VertexId parent = head_parent_[static_cast<size_t>(chain[e])];
        DPSP_CHECK_MSG(parent != -1, "climbed past the root during HLD ascent");
        climb[e] += ascent_cost_[static_cast<size_t>(at[e])];
        at[e] = parent;
        chain[e] = chain_of_[static_cast<size_t>(parent)];
        work[next_live] = static_cast<uint16_t>(e);
        next_live += chain[e] != target[e];
      }
      live = next_live;
    }

    // Range phase: each round, every endpoint with range left takes one
    // dyadic block of [pos(lca), pos(at)) on the LCA's chain.
    live = 0;
    for (int e = 0; e < ends; ++e) {
      sums[e] = &chains_[static_cast<size_t>(target[e])];
      lo[e] = pos_in_chain_[static_cast<size_t>(z[e / 2])];
      hi[e] = pos_in_chain_[static_cast<size_t>(at[e])];
      range[e] = 0.0;
      work[live] = static_cast<uint16_t>(e);
      live += lo[e] < hi[e];
    }
    while (live > 0) {
      int next_live = 0;
      for (int k = 0; k < live; ++k) {
        const int e = work[k];
        range[e] += sums[e]->TakeBlock(&lo[e], hi[e]);
        work[next_live] = static_cast<uint16_t>(e);
        next_live += lo[e] < hi[e];
      }
      live = next_live;
    }

    for (int j = 0; j < count; ++j) {
      out[done + static_cast<size_t>(j)] =
          (climb[2 * j] + range[2 * j]) + (climb[2 * j + 1] + range[2 * j + 1]);
    }
  }
  return Status::Ok();
}

double HldTreeOracle::DistanceToAncestor(VertexId v, VertexId z) const {
  // Each crossing adds the cached ascent cost (chain prefix + light edge)
  // and lands on the head's parent; the last chain is a range sum.
  double sum = 0.0;
  const int chain_z = chain_of_[static_cast<size_t>(z)];
  while (chain_of_[static_cast<size_t>(v)] != chain_z) {
    int c = chain_of_[static_cast<size_t>(v)];
    VertexId next = head_parent_[static_cast<size_t>(c)];
    DPSP_CHECK_MSG(next != -1, "climbed past the root during HLD ascent");
    sum += ascent_cost_[static_cast<size_t>(v)];
    v = next;
  }
  return sum +
         chains_[static_cast<size_t>(chain_z)]
             .RangeSumUnchecked(pos_in_chain_[static_cast<size_t>(z)],
                                pos_in_chain_[static_cast<size_t>(v)]);
}

Status HldTreeOracle::SaveReleasedState(
    std::vector<ReleasedSection>* out) const {
  // Every noisy value of the release: the per-chain dyadic blocks
  // (concatenated in chain order, with per-chain counts so restore can
  // slice them back), and the light-edge scalars. Everything else —
  // chains, LCA, membership, ascent caches — is deterministic
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

  // Rebuild the deterministic skeleton (chains, LCA, membership) with a
  // throwaway noise stream, then overwrite every noisy value with the
  // persisted image. The decomposition depends only on the public
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
  if (u < 0 || u >= tree_->num_vertices() || v < 0 ||
      v >= tree_->num_vertices()) {
    return Status::InvalidArgument("vertex out of range");
  }
  VertexId z = lca_->Lca(u, v);
  return DistanceToAncestor(u, z) + DistanceToAncestor(v, z);
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
