#pragma once

#include <string>
#include <vector>

#include "core/features.hpp"
#include "gnn/two_phase_gnn.hpp"
#include "lm/encoder.hpp"
#include "tensor/nn.hpp"

namespace moss::core {

/// Full model configuration. The three ablation axes of Table I:
///   features.lm_features (F), features.adaptive_agg (AA), alignment (A).
struct MossConfig {
  FeatureConfig features;
  bool alignment = true;   ///< local-global alignment strategy (RrNdM/RNC/RNM)
  std::size_t hidden = 32;
  int rounds = 2;          ///< two-phase propagation iterations
  bool attention = true;
  /// DeepSeq2-style disentangled embedding space: the hidden vector is
  /// split into function / toggle / structure bands and each task head
  /// reads only its band (function → one_prob + the alignment projection,
  /// toggle → toggle, structure → arrival), so the per-head losses shape
  /// disjoint sub-embeddings instead of one entangled code.
  bool disentangle = false;
  std::uint64_t seed = 1;

  static MossConfig full() { return {}; }
  /// "MOSS disentangled": the DeepSeq2-style ablation.
  static MossConfig disentangled() {
    MossConfig c;
    c.disentangle = true;
    return c;
  }
  /// "MOSS w/o A": no alignment strategy.
  static MossConfig without_alignment() {
    MossConfig c;
    c.alignment = false;
    return c;
  }
  /// "MOSS w/o AA": additionally no adaptive aggregator.
  static MossConfig without_adaptive_agg() {
    MossConfig c = without_alignment();
    c.features.adaptive_agg = false;
    return c;
  }
  /// "MOSS w/o FAA": additionally no LM feature enhancement. Per the
  /// paper, all node identity comes from the LLM, so this variant's nodes
  /// carry no features at all (bias only).
  static MossConfig without_features() {
    MossConfig c = without_adaptive_agg();
    c.features.lm_features = false;
    c.features.structural_features = false;
    return c;
  }
};

/// Per-node local predictions for one circuit.
struct LocalPredictions {
  tensor::Tensor one_prob;  ///< |cell_rows|×1, in (0,1)
  tensor::Tensor toggle;    ///< |cell_rows|×1, in (0,1)
  tensor::Tensor arrival;   ///< |arrival_rows|×1, normalized (kArrivalScale)
};

/// The MOSS model: two-phase GNN over LM-enhanced netlist graphs with local
/// task heads and global alignment components (projection, temperature, RNM
/// matching head).
class MossModel {
 public:
  MossModel(const MossConfig& cfg, const cell::CellLibrary& lib,
            const lm::TextEncoder& enc);

  const MossConfig& config() const { return cfg_; }
  tensor::ParameterSet& params() { return params_; }
  const tensor::ParameterSet& params() const { return params_; }
  /// The underlying GNN, for the serve layer's fused forward, which runs
  /// it over a merged multi-circuit graph.
  const gnn::TwoPhaseGnn& gnn() const { return gnn_; }

  /// GNN forward: final node embeddings (num_nodes × hidden).
  tensor::Tensor node_embeddings(const CircuitBatch& batch) const;

  /// Local task heads applied to node embeddings. Heads read the node
  /// embedding concatenated with the node's raw feature row (a skip
  /// connection): raw levels/loads stay unsquashed, so e.g. arrival
  /// extrapolates past the tanh-bounded embedding range.
  LocalPredictions predict_local(const CircuitBatch& batch,
                                 const tensor::Tensor& node_h) const;

  /// Arrival-time head on arbitrary rows (used for per-DFF ATP evaluation).
  tensor::Tensor predict_arrival(const CircuitBatch& batch,
                                 const tensor::Tensor& node_h,
                                 const std::vector<int>& rows) const;

  /// Pooled netlist embedding projected into the LM space (1 × d_lm),
  /// L2-normalized — "N_e" of the pseudocode.
  tensor::Tensor netlist_embedding(const CircuitBatch& batch,
                                   const tensor::Tensor& node_h) const;

  /// L2-normalized RTL embedding "R_e" (frozen LM).
  tensor::Tensor rtl_embedding(const std::string& module_text) const;

  /// Projected DFF embeddings (|flop_rows| × d_lm, L2-normalized) for the
  /// RrNdM register-to-DFF matching loss.
  tensor::Tensor dff_projections(const CircuitBatch& batch,
                                 const tensor::Tensor& node_h) const;

  /// RNM matching logits for all (RTL row i, netlist row j) pairs:
  /// returns (R·N)×1 logits, row-major over i then j.
  tensor::Tensor rnm_logits(const tensor::Tensor& r_e,
                            const tensor::Tensor& n_e) const;

  /// Learnable contrastive temperature (1×1); logits scale by exp(t).
  const tensor::Tensor& temperature() const { return temperature_; }

  /// Pair score used for functional-equivalence prediction: cosine
  /// similarity plus (when alignment heads exist) the RNM logit.
  float pair_score(const tensor::Tensor& r_e, const tensor::Tensor& n_e) const;

  /// Disentangled band widths (function, toggle, structure); all equal to
  /// `hidden` when disentangle is off (every head sees the full vector).
  std::size_t function_band() const { return func_w_; }
  std::size_t toggle_band() const { return tog_w_; }
  std::size_t structure_band() const { return str_w_; }

 private:
  MossConfig cfg_;
  const lm::TextEncoder* enc_;
  tensor::ParameterSet params_;
  gnn::TwoPhaseGnn gnn_;
  tensor::Linear prob_head_;
  tensor::Linear toggle_head_;
  tensor::Mlp arrival_head_;
  tensor::Linear netlist_proj_;  ///< W_n: hidden (or function band) -> d_lm
  tensor::Mlp rnm_head_;         ///< 2·d_lm -> 1
  tensor::Tensor temperature_;
  /// Band layout: [0, func_w_) function, [func_w_, func_w_ + tog_w_)
  /// toggle, the rest structure. With disentangle off, every band spans
  /// the whole hidden vector (func_w_ == tog_w_ == str_w_ == hidden).
  std::size_t func_w_ = 0;
  std::size_t tog_w_ = 0;
  std::size_t str_w_ = 0;
};

}  // namespace moss::core
