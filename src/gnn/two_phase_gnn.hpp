#pragma once

#include <string>
#include <vector>

#include "gnn/graph.hpp"
#include "tensor/nn.hpp"

namespace moss::gnn {

struct GnnConfig {
  std::size_t feature_dim = 0;   ///< F (input features)
  std::size_t hidden = 32;       ///< d (node embedding width)
  std::size_t num_aggregators = 1;
  int rounds = 3;                ///< two-phase iterations (paper uses ~10)
  int max_pin_pos = 6;           ///< positional-encoding table size
  bool attention = true;         ///< false = mean aggregation (ablation)
  /// GRU-style node update (as in the DeepSeq/DeepGate series) instead of
  /// the default tanh(W_self·h + agg) update:
  ///   z = σ(W_z·[m;h]), r = σ(W_r·[m;h]), h' = (1−z)⊙h + z⊙tanh(W_h·[m;r⊙h])
  bool gru_update = false;
};

/// The MOSS GNN: clustering-selected attention aggregators + two-phase
/// asynchronous temporal propagation (Fig. 4/5).
///
/// One round = forward phase (combinational levels in order, each level
/// seeing the already-updated previous levels — "asynchronous") followed by
/// turnaround phase (DFF updates from their D/E/R drivers, feeding state
/// back). Each aggregator cluster has its own message/self weights and
/// attention vectors; edges carry trainable positional encodings (pin
/// order), capturing per-pin asymmetry of standard cells.
class TwoPhaseGnn {
 public:
  TwoPhaseGnn(const GnnConfig& cfg, Rng& rng, tensor::ParameterSet& params,
              const std::string& name = "gnn");

  const GnnConfig& config() const { return cfg_; }

  /// Final node embeddings (N×hidden) after `cfg.rounds` two-phase rounds.
  tensor::Tensor run(const Graph& g) const;

  /// Mean-pooled graph embedding (1×hidden) over g.readout_nodes.
  tensor::Tensor readout(const Graph& g, const tensor::Tensor& node_h) const;

 private:
  /// h0 = tanh(features·W_in + b_in): the pre-propagation state.
  tensor::Tensor initial_state(const tensor::Tensor& features) const;
  tensor::Tensor apply_step(const UpdateStep& step, tensor::Tensor h) const;

  GnnConfig cfg_;
  tensor::Linear input_proj_;
  tensor::Tensor pos_table_;  ///< max_pin_pos × hidden
  struct Aggregator {
    tensor::Tensor w_msg;   // d×d
    tensor::Tensor w_self;  // d×d
    tensor::Tensor bias;    // 1×d
    tensor::Tensor attn_msg;   // d×1
    tensor::Tensor attn_self;  // d×1
    // GRU gates (only allocated when cfg.gru_update): each 2d×d.
    tensor::Tensor w_z;
    tensor::Tensor w_r;
    tensor::Tensor w_h;
  };
  std::vector<Aggregator> aggs_;
};

}  // namespace moss::gnn
