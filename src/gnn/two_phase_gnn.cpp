#include "gnn/two_phase_gnn.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.hpp"

namespace moss::gnn {

using tensor::Tensor;

TwoPhaseGnn::TwoPhaseGnn(const GnnConfig& cfg, Rng& rng,
                         tensor::ParameterSet& params,
                         const std::string& name)
    : cfg_(cfg),
      input_proj_(cfg.feature_dim, cfg.hidden, rng, params, name + ".in") {
  MOSS_CHECK(cfg.feature_dim > 0, "GnnConfig.feature_dim must be set");
  MOSS_CHECK(cfg.num_aggregators >= 1, "need at least one aggregator");
  const float std = 1.0f / std::sqrt(static_cast<float>(cfg.hidden));
  pos_table_ = params.add(
      name + ".pos",
      Tensor::randn(static_cast<std::size_t>(cfg.max_pin_pos), cfg.hidden,
                    rng, std, true));
  aggs_.resize(cfg.num_aggregators);
  for (std::size_t g = 0; g < cfg.num_aggregators; ++g) {
    const std::string p = name + ".agg" + std::to_string(g);
    aggs_[g].w_msg = params.add(
        p + ".w_msg", Tensor::randn(cfg.hidden, cfg.hidden, rng, std, true));
    aggs_[g].w_self = params.add(
        p + ".w_self", Tensor::randn(cfg.hidden, cfg.hidden, rng, std, true));
    aggs_[g].bias = params.add(p + ".b", Tensor::zeros(1, cfg.hidden, true));
    aggs_[g].attn_msg = params.add(
        p + ".a_msg", Tensor::randn(cfg.hidden, 1, rng, std, true));
    aggs_[g].attn_self = params.add(
        p + ".a_self", Tensor::randn(cfg.hidden, 1, rng, std, true));
    if (cfg.gru_update) {
      aggs_[g].w_z = params.add(
          p + ".w_z",
          Tensor::randn(2 * cfg.hidden, cfg.hidden, rng, std, true));
      aggs_[g].w_r = params.add(
          p + ".w_r",
          Tensor::randn(2 * cfg.hidden, cfg.hidden, rng, std, true));
      aggs_[g].w_h = params.add(
          p + ".w_h",
          Tensor::randn(2 * cfg.hidden, cfg.hidden, rng, std, true));
    }
  }
}

Tensor TwoPhaseGnn::apply_step(const UpdateStep& step, Tensor h) const {
  std::vector<int> all_nodes;
  std::vector<Tensor> all_new;
  for (const UpdateGroup& grp : step.groups) {
    MOSS_CHECK(static_cast<std::size_t>(grp.cluster) < aggs_.size(),
               "cluster id exceeds aggregator count");
    const Aggregator& agg = aggs_[static_cast<std::size_t>(grp.cluster)];

    // Per-edge messages: W_msg · h_src + positional encoding of the pin.
    // Pin positions from malformed graphs can be out of range in either
    // direction (e.g. -1 from a failed pin lookup); clamp both ends so the
    // positional-table gather stays in bounds.
    std::vector<int> pos_clamped = grp.edge_pos;
    for (int& p : pos_clamped) {
      p = std::clamp(p, 0, cfg_.max_pin_pos - 1);
    }
    // Fused gather+GEMM: the per-edge source rows are never materialized.
    Tensor msg = tensor::add(
        tensor::kernels::gather_matmul(h, grp.edge_src, agg.w_msg),
        tensor::gather_rows(pos_table_, pos_clamped));

    Tensor weighted;
    if (cfg_.attention) {
      const Tensor dst_h = tensor::gather_rows(h, grp.edge_dst);
      const Tensor score = tensor::leaky_relu(
          tensor::add(tensor::matmul(msg, agg.attn_msg),
                      tensor::matmul(dst_h, agg.attn_self)),
          0.2f);
      const Tensor alpha =
          tensor::segment_softmax(score, grp.edge_dst_local,
                                  grp.nodes.size());
      weighted = tensor::mul_colvec(msg, alpha);
    } else {
      // Mean aggregation: weight each edge by 1/indegree(dst).
      std::vector<float> inv(grp.edge_src.size(), 0.0f);
      std::vector<int> deg(grp.nodes.size(), 0);
      for (const int d : grp.edge_dst_local) ++deg[static_cast<std::size_t>(d)];
      for (std::size_t e = 0; e < inv.size(); ++e) {
        inv[e] = 1.0f / static_cast<float>(
                            deg[static_cast<std::size_t>(
                                grp.edge_dst_local[e])]);
      }
      weighted = tensor::mul_colvec(
          msg, Tensor::from(std::move(inv), grp.edge_src.size(), 1));
    }
    const Tensor aggregated =
        tensor::segment_sum(weighted, grp.edge_dst_local, grp.nodes.size());
    const Tensor self_h = tensor::gather_rows(h, grp.nodes);
    Tensor new_h;
    if (cfg_.gru_update) {
      const Tensor mh = tensor::concat_cols(aggregated, self_h);
      const Tensor z = tensor::sigmoid(tensor::matmul(mh, agg.w_z));
      const Tensor r = tensor::sigmoid(tensor::matmul(mh, agg.w_r));
      const Tensor cand = tensor::tanh_t(tensor::matmul(
          tensor::concat_cols(aggregated, r * self_h), agg.w_h));
      const Tensor ones = Tensor::full(z.rows(), z.cols(), 1.0f);
      new_h = tensor::add((ones - z) * self_h, z * cand);
    } else {
      // Fused matmul+add+bias+tanh; bit-identical to the composed ops.
      new_h = tensor::kernels::matmul_bias_tanh(self_h, agg.w_self,
                                                aggregated, agg.bias);
    }
    all_nodes.insert(all_nodes.end(), grp.nodes.begin(), grp.nodes.end());
    all_new.push_back(new_h);
  }
  if (all_nodes.empty()) return h;
  const Tensor rows =
      all_new.size() == 1 ? all_new[0] : tensor::concat_rows(all_new);
  // In-place scatter: reuses h's buffer instead of cloning N×H floats per
  // step. h is dead after this call (apply_step owns its copy), which is
  // exactly the scatter_rows_ caller contract.
  return tensor::scatter_rows_(h, all_nodes, rows);
}

Tensor TwoPhaseGnn::initial_state(const Tensor& features) const {
  MOSS_CHECK(features.defined(), "graph has no features");
  MOSS_CHECK(features.cols() == cfg_.feature_dim,
             "graph feature width != GnnConfig.feature_dim");
  return tensor::kernels::matmul_bias_tanh(features, input_proj_.weight(),
                                           Tensor{}, input_proj_.bias());
}

Tensor TwoPhaseGnn::run(const Graph& g) const {
  Tensor h = initial_state(g.features);
  for (int round = 0; round < cfg_.rounds; ++round) {
    for (const UpdateStep& step : g.forward_steps) {
      h = apply_step(step, h);
    }
    for (const UpdateStep& step : g.turnaround_steps) {
      h = apply_step(step, h);
    }
  }
  return h;
}

Tensor TwoPhaseGnn::readout(const Graph& g, const Tensor& node_h) const {
  return tensor::mean_rows(tensor::gather_rows(node_h, g.readout_nodes));
}

}  // namespace moss::gnn
