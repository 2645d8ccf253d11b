#include "plan/plan.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "core_util/check.hpp"
#include "core_util/hash.hpp"
#include "tensor/serialize.hpp"

namespace moss::plan {

using netlist::Netlist;
using netlist::NodeId;
using netlist::NodeKind;
using tensor::Tensor;

namespace {

/// Seed mixed into every cone hash, versioned so fingerprints stored under a
/// different hashing scheme never compare equal in dirty_cones().
constexpr std::uint64_t kConeTag = 0x434F4E4531ull;  // "CONE1"

NodeClass classify(const Netlist& nl, NodeId id) {
  const netlist::Node& n = nl.node(id);
  switch (n.kind) {
    case NodeKind::kPrimaryInput: return NodeClass::kInput;
    case NodeKind::kPrimaryOutput: return NodeClass::kOutput;
    case NodeKind::kCell: {
      const cell::CellType& t = nl.library().type(n.type);
      if (t.is_flop()) return NodeClass::kFlop;
      if (t.is_tie()) return NodeClass::kTie;
      return NodeClass::kComb;
    }
  }
  MOSS_CHECK(false, "unreachable node kind");
  return NodeClass::kComb;
}

/// Fill cone_hash / cone_id / unique_cones from the plan's structure (and
/// the netlist, for register names). Two passes over the stored topo order:
/// combinational cones first (fanins are always earlier in topo), then
/// flops (whose D/E/R drivers may be later in topo but are settled by the
/// end of pass one).
///
/// The hash captures exactly what a node's final embedding depends on under
/// one two-phase round: its own h0 identity (class, cell type, aggregator
/// cluster, full feature row — the row matters because fanout/load features
/// depend on context outside the cone) plus, for updated nodes, the
/// forward-phase value of each fanin in pin order. A fanin contributes its
/// cone hash when combinational (updated before being read) and its h0 leaf
/// hash otherwise (PIs, ties and flops all hold h0 through the forward
/// phase, and the single turnaround step reads pre-step state).
void compute_cones(ExecutionPlan& p, const Netlist& nl) {
  const std::size_t N = p.num_nodes();
  const std::size_t F = p.feature_dim;
  std::vector<std::uint64_t> leaf(N, 0);
  p.cone_hash.assign(N, 0);
  for (std::size_t i = 0; i < N; ++i) {
    HashBuilder b;
    b.mix(kConeTag);
    b.mix(static_cast<std::uint64_t>(p.node_class[i]));
    b.mix(static_cast<std::int64_t>(p.cell_type[i]));
    b.mix(static_cast<std::int64_t>(p.cluster[i]));
    if (F > 0) {
      b.mix_bytes(p.features.data() + i * F, F * sizeof(float));
    }
    if (p.klass(static_cast<std::int32_t>(i)) == NodeClass::kFlop) {
      b.mix(std::string_view(nl.node(static_cast<NodeId>(i)).rtl_register));
    }
    leaf[i] = b.digest();
  }
  const auto fwd_of = [&](std::int32_t f) {
    // Forward-phase value identity of a fanin: combinational nodes are
    // updated in level order before being read; everything else is h0.
    return p.klass(f) == NodeClass::kComb
               ? p.cone_hash[static_cast<std::size_t>(f)]
               : leaf[static_cast<std::size_t>(f)];
  };
  const auto cone_of = [&](std::int32_t id) {
    HashBuilder b;
    b.mix(leaf[static_cast<std::size_t>(id)]);
    const auto lo = p.fanin_offset[static_cast<std::size_t>(id)];
    const auto hi = p.fanin_offset[static_cast<std::size_t>(id) + 1];
    for (auto e = lo; e < hi; ++e) {
      b.mix(fwd_of(p.fanin[static_cast<std::size_t>(e)]));
    }
    return b.digest();
  };
  for (const std::int32_t id : p.topo) {
    switch (p.klass(id)) {
      case NodeClass::kInput:
      case NodeClass::kTie:
        p.cone_hash[static_cast<std::size_t>(id)] =
            leaf[static_cast<std::size_t>(id)];
        break;
      case NodeClass::kComb:
        p.cone_hash[static_cast<std::size_t>(id)] = cone_of(id);
        break;
      case NodeClass::kOutput:
      case NodeClass::kFlop:
        break;  // POs excluded; flops need pass two
    }
  }
  for (const std::int32_t f : p.flops) {
    p.cone_hash[static_cast<std::size_t>(f)] = cone_of(f);
  }

  // Dense interning, first-seen in ascending id order (klee-mc's
  // fast-unique-table idea: structural hash -> one canonical id).
  p.cone_id.assign(N, -1);
  std::unordered_map<std::uint64_t, std::int32_t> interned;
  interned.reserve(N);
  for (std::size_t i = 0; i < N; ++i) {
    if (p.klass(static_cast<std::int32_t>(i)) == NodeClass::kOutput) continue;
    const auto [it, fresh] = interned.emplace(
        p.cone_hash[i], static_cast<std::int32_t>(interned.size()));
    p.cone_id[i] = it->second;
    (void)fresh;
  }
  p.unique_cones = static_cast<std::uint32_t>(interned.size());
}

void fill_structure(ExecutionPlan& p, const Netlist& nl) {
  const std::size_t N = nl.num_nodes();
  p.node_class.resize(N);
  p.cell_type.assign(N, -1);
  p.level.resize(N);
  p.output_load.resize(N);
  p.fanin_offset.assign(N + 1, 0);
  p.fanout_offset.assign(N + 1, 0);
  for (std::size_t i = 0; i < N; ++i) {
    const auto id = static_cast<NodeId>(i);
    const netlist::Node& n = nl.node(id);
    p.node_class[i] = static_cast<std::uint8_t>(classify(nl, id));
    if (n.kind == NodeKind::kCell) {
      p.cell_type[i] = static_cast<std::int32_t>(n.type);
    }
    p.level[i] = n.level;
    p.output_load[i] = nl.output_load(id);
    p.fanin_offset[i + 1] =
        p.fanin_offset[i] + static_cast<std::int64_t>(n.fanin.size());
    p.fanout_offset[i + 1] =
        p.fanout_offset[i] + static_cast<std::int64_t>(n.fanout.size());
  }
  p.fanin.reserve(static_cast<std::size_t>(p.fanin_offset[N]));
  p.fanout.reserve(static_cast<std::size_t>(p.fanout_offset[N]));
  for (std::size_t i = 0; i < N; ++i) {
    const netlist::Node& n = nl.node(static_cast<NodeId>(i));
    p.fanin.insert(p.fanin.end(), n.fanin.begin(), n.fanin.end());
    p.fanout.insert(p.fanout.end(), n.fanout.begin(), n.fanout.end());
  }
  p.topo.assign(nl.topo_order().begin(), nl.topo_order().end());
  p.inputs.assign(nl.inputs().begin(), nl.inputs().end());
  p.outputs.assign(nl.outputs().begin(), nl.outputs().end());
  p.flops.assign(nl.flops().begin(), nl.flops().end());

  // Per-level combinational ranges (ids ascending within a level — the
  // order build_batch schedules forward steps in).
  std::vector<std::vector<std::int32_t>> by_level;
  for (std::size_t i = 0; i < N; ++i) {
    if (p.klass(static_cast<std::int32_t>(i)) != NodeClass::kComb) continue;
    const auto lvl = static_cast<std::size_t>(p.level[i]);
    if (by_level.size() <= lvl) by_level.resize(lvl + 1);
    by_level[lvl].push_back(static_cast<std::int32_t>(i));
  }
  p.level_offset.assign(1, 0);
  p.level_nodes.clear();
  for (const auto& lvl : by_level) {
    p.level_nodes.insert(p.level_nodes.end(), lvl.begin(), lvl.end());
    p.level_offset.push_back(static_cast<std::int64_t>(p.level_nodes.size()));
  }

  // Precomputed flop control-pin indices (-1 when the cell has no pin).
  p.flop_pin_d.clear();
  p.flop_pin_e.clear();
  p.flop_pin_r.clear();
  for (const std::int32_t f : p.flops) {
    const cell::CellType& t =
        nl.library().type(nl.node(static_cast<NodeId>(f)).type);
    p.flop_pin_d.push_back(t.pin_index("D"));
    p.flop_pin_e.push_back(t.pin_index("E"));
    p.flop_pin_r.push_back(t.pin_index("R"));
  }
}

void flatten_steps(ExecutionPlan& p,
                   const std::vector<gnn::UpdateStep>& steps,
                   std::vector<std::int64_t>& step_offset) {
  for (const gnn::UpdateStep& st : steps) {
    for (const gnn::UpdateGroup& g : st.groups) {
      p.group_cluster.push_back(g.cluster);
      p.sched_nodes.insert(p.sched_nodes.end(), g.nodes.begin(),
                           g.nodes.end());
      p.edge_src.insert(p.edge_src.end(), g.edge_src.begin(),
                        g.edge_src.end());
      p.edge_dst.insert(p.edge_dst.end(), g.edge_dst.begin(),
                        g.edge_dst.end());
      p.edge_dst_local.insert(p.edge_dst_local.end(),
                              g.edge_dst_local.begin(),
                              g.edge_dst_local.end());
      p.edge_pos.insert(p.edge_pos.end(), g.edge_pos.begin(),
                        g.edge_pos.end());
      p.group_node_offset.push_back(
          static_cast<std::int64_t>(p.sched_nodes.size()));
      p.group_edge_offset.push_back(
          static_cast<std::int64_t>(p.edge_src.size()));
    }
    step_offset.push_back(static_cast<std::int64_t>(p.group_cluster.size()));
  }
}

void check_csr(const ErrorContext& ctx, const std::vector<std::int64_t>& off,
               std::size_t rows, std::size_t pool, const char* what) {
  ctx.check(off.size() == rows + 1 && off.front() == 0 &&
                off.back() == static_cast<std::int64_t>(pool) &&
                std::is_sorted(off.begin(), off.end()),
            std::string("plan ") + what + " offsets are malformed");
}

void check_ids(const ErrorContext& ctx, const std::vector<std::int32_t>& ids,
               std::size_t n, const char* what) {
  for (const std::int32_t v : ids) {
    ctx.check(v >= 0 && static_cast<std::size_t>(v) < n,
              std::string("plan ") + what + " id out of range");
  }
}

void validate(const ExecutionPlan& p, const ErrorContext& ctx) {
  const std::size_t N = p.num_nodes();
  ctx.check(p.cell_type.size() == N && p.cluster.size() == N &&
                p.level.size() == N && p.output_load.size() == N &&
                p.topo.size() == N && p.cone_hash.size() == N &&
                p.cone_id.size() == N,
            "plan per-node array sizes disagree");
  for (const std::uint8_t c : p.node_class) {
    ctx.check(c <= static_cast<std::uint8_t>(NodeClass::kTie),
              "plan node class out of range");
  }
  check_csr(ctx, p.fanin_offset, N, p.fanin.size(), "fanin");
  check_csr(ctx, p.fanout_offset, N, p.fanout.size(), "fanout");
  check_ids(ctx, p.fanin, N, "fanin");
  check_ids(ctx, p.fanout, N, "fanout");
  check_ids(ctx, p.inputs, N, "input");
  check_ids(ctx, p.outputs, N, "output");
  check_ids(ctx, p.flops, N, "flop");
  check_ids(ctx, p.level_nodes, N, "level");
  check_ids(ctx, p.sched_nodes, N, "schedule");
  check_ids(ctx, p.readout, N, "readout");
  {
    std::vector<char> seen(N, 0);
    for (const std::int32_t v : p.topo) {
      ctx.check(v >= 0 && static_cast<std::size_t>(v) < N &&
                    !seen[static_cast<std::size_t>(v)],
                "plan topo order is not a permutation");
      seen[static_cast<std::size_t>(v)] = 1;
    }
  }
  ctx.check(!p.level_offset.empty() && p.level_offset.front() == 0 &&
                p.level_offset.back() ==
                    static_cast<std::int64_t>(p.level_nodes.size()) &&
                std::is_sorted(p.level_offset.begin(), p.level_offset.end()),
            "plan level ranges are malformed");
  ctx.check(p.flop_pin_d.size() == p.flops.size() &&
                p.flop_pin_e.size() == p.flops.size() &&
                p.flop_pin_r.size() == p.flops.size(),
            "plan flop pin arrays disagree with flop count");

  const std::size_t G = p.group_cluster.size();
  check_csr(ctx, p.group_node_offset, G, p.sched_nodes.size(),
            "schedule group node");
  check_csr(ctx, p.group_edge_offset, G, p.edge_src.size(),
            "schedule group edge");
  ctx.check(p.edge_dst.size() == p.edge_src.size() &&
                p.edge_dst_local.size() == p.edge_src.size() &&
                p.edge_pos.size() == p.edge_src.size(),
            "plan edge pools disagree");
  ctx.check(!p.fwd_step_offset.empty() && !p.turn_step_offset.empty() &&
                p.fwd_step_offset.front() == 0 &&
                p.fwd_step_offset.back() == p.turn_step_offset.front() &&
                p.turn_step_offset.back() == static_cast<std::int64_t>(G) &&
                std::is_sorted(p.fwd_step_offset.begin(),
                               p.fwd_step_offset.end()) &&
                std::is_sorted(p.turn_step_offset.begin(),
                               p.turn_step_offset.end()),
            "plan step ranges are malformed");

  ctx.check(p.features.size() == N * p.feature_dim,
            "plan feature block size mismatch");
  ctx.check(p.toggle.size() == p.cell_rows.size() &&
                p.one_prob.size() == p.cell_rows.size() &&
                p.arrival_norm.size() == p.arrival_rows.size() &&
                p.flop_arrival_norm.size() == p.flop_rows.size(),
            "plan label rows disagree");
  check_ids(ctx, p.cell_rows, N, "cell row");
  check_ids(ctx, p.arrival_rows, N, "arrival row");
  check_ids(ctx, p.flop_rows, N, "flop row");
  ctx.check(p.reg_prompt_emb.size() == p.flop_rows.size() * p.prompt_dim,
            "plan register-prompt block size mismatch");
}

}  // namespace

ExecutionPlan compile(const Netlist& nl, const core::CircuitBatch& batch) {
  MOSS_CHECK(nl.finalized(), "plan compilation needs a finalized netlist");
  MOSS_CHECK(batch.graph.num_nodes == nl.num_nodes(),
             "batch/netlist node count mismatch");
  const std::size_t N = nl.num_nodes();

  ExecutionPlan p;
  p.name = batch.name;
  p.module_text = batch.module_text;
  p.num_clusters = static_cast<std::uint32_t>(batch.graph.num_clusters);
  p.feature_dim = batch.graph.features.defined()
                      ? static_cast<std::uint32_t>(batch.graph.features.cols())
                      : 0;
  p.num_cells = batch.num_cells;
  p.power_uw = batch.power_uw;
  p.batch_hash = core::content_hash(batch);

  fill_structure(p, nl);

  // Cluster assignment: ports and ties share the last aggregator (the
  // build_batch convention); every scheduled node carries its group's
  // cluster; POs are outside the GNN.
  p.cluster.assign(N, -1);
  for (std::size_t i = 0; i < N; ++i) {
    const NodeClass c = p.klass(static_cast<std::int32_t>(i));
    if (c == NodeClass::kInput || c == NodeClass::kTie) {
      p.cluster[i] = static_cast<std::int32_t>(p.num_clusters) - 1;
    }
  }
  const auto claim_clusters = [&](const std::vector<gnn::UpdateStep>& steps) {
    for (const gnn::UpdateStep& st : steps) {
      for (const gnn::UpdateGroup& g : st.groups) {
        for (const int v : g.nodes) {
          p.cluster[static_cast<std::size_t>(v)] = g.cluster;
        }
      }
    }
  };
  claim_clusters(batch.graph.forward_steps);
  claim_clusters(batch.graph.turnaround_steps);

  // Schedule, flattened in step order (forward groups first).
  p.group_node_offset.assign(1, 0);
  p.group_edge_offset.assign(1, 0);
  p.fwd_step_offset.assign(1, 0);
  flatten_steps(p, batch.graph.forward_steps, p.fwd_step_offset);
  p.turn_step_offset.assign(
      1, static_cast<std::int64_t>(p.group_cluster.size()));
  flatten_steps(p, batch.graph.turnaround_steps, p.turn_step_offset);
  p.readout.assign(batch.graph.readout_nodes.begin(),
                   batch.graph.readout_nodes.end());

  // Features, rows, labels — batch copies, so to_batch round-trips.
  if (p.feature_dim > 0) p.features = batch.graph.features.data();
  p.cell_rows.assign(batch.cell_rows.begin(), batch.cell_rows.end());
  p.arrival_rows.assign(batch.arrival_rows.begin(), batch.arrival_rows.end());
  p.flop_rows.assign(batch.flop_rows.begin(), batch.flop_rows.end());
  p.toggle = batch.toggle;
  p.one_prob = batch.one_prob;
  p.arrival_norm = batch.arrival_norm;
  p.flop_arrival_norm = batch.flop_arrival_norm;
  if (batch.reg_prompt_emb.defined()) {
    p.prompt_dim = static_cast<std::uint32_t>(batch.reg_prompt_emb.cols());
    p.reg_prompt_emb = batch.reg_prompt_emb.data();
  }

  compute_cones(p, nl);

  ErrorContext ctx;
  ctx.add("plan", p.name);
  validate(p, ctx);
  return p;
}

ExecutionPlan compile(const data::LabeledCircuit& lc,
                      const lm::TextEncoder& enc,
                      const core::FeatureConfig& cfg) {
  return compile(lc.netlist, core::build_batch(lc, enc, cfg));
}

core::CircuitBatch to_batch(const ExecutionPlan& p) {
  const std::size_t N = p.num_nodes();
  core::CircuitBatch b;
  b.name = p.name;
  b.module_text = p.module_text;
  b.num_cells = static_cast<std::size_t>(p.num_cells);
  b.power_uw = p.power_uw;

  gnn::Graph g;
  g.num_nodes = N;
  g.num_clusters = p.num_clusters;
  if (p.feature_dim > 0) {
    g.features = Tensor::from(p.features, N, p.feature_dim);
  }
  const auto rebuild = [&](const std::vector<std::int64_t>& step_off) {
    std::vector<gnn::UpdateStep> steps;
    steps.reserve(step_off.size() - 1);
    for (std::size_t s = 0; s + 1 < step_off.size(); ++s) {
      gnn::UpdateStep st;
      for (auto gi = step_off[s]; gi < step_off[s + 1]; ++gi) {
        const auto i = static_cast<std::size_t>(gi);
        gnn::UpdateGroup grp;
        grp.cluster = p.group_cluster[i];
        const auto nb = p.group_node_offset[i], ne = p.group_node_offset[i + 1];
        const auto eb = p.group_edge_offset[i], ee = p.group_edge_offset[i + 1];
        grp.nodes.assign(p.sched_nodes.begin() + nb, p.sched_nodes.begin() + ne);
        grp.edge_src.assign(p.edge_src.begin() + eb, p.edge_src.begin() + ee);
        grp.edge_dst.assign(p.edge_dst.begin() + eb, p.edge_dst.begin() + ee);
        grp.edge_dst_local.assign(p.edge_dst_local.begin() + eb,
                                  p.edge_dst_local.begin() + ee);
        grp.edge_pos.assign(p.edge_pos.begin() + eb, p.edge_pos.begin() + ee);
        st.groups.push_back(std::move(grp));
      }
      steps.push_back(std::move(st));
    }
    return steps;
  };
  g.forward_steps = rebuild(p.fwd_step_offset);
  g.turnaround_steps = rebuild(p.turn_step_offset);
  g.readout_nodes.assign(p.readout.begin(), p.readout.end());
  b.graph = std::move(g);

  b.cell_rows.assign(p.cell_rows.begin(), p.cell_rows.end());
  b.arrival_rows.assign(p.arrival_rows.begin(), p.arrival_rows.end());
  b.flop_rows.assign(p.flop_rows.begin(), p.flop_rows.end());
  b.toggle = p.toggle;
  b.one_prob = p.one_prob;
  b.arrival_norm = p.arrival_norm;
  b.flop_arrival_norm = p.flop_arrival_norm;
  if (p.prompt_dim > 0) {
    b.reg_prompt_emb =
        Tensor::from(p.reg_prompt_emb, p.flop_rows.size(), p.prompt_dim);
  }
  b.content_hash = p.batch_hash;
  return b;
}

// ---------------------------------------------------------------------------
// Blob serialization
// ---------------------------------------------------------------------------

namespace {

void w_bytes_arr(tensor::ByteWriter& w, const void* data, std::size_t count,
                 std::size_t elem) {
  w.u64(count);
  if (count > 0) w.bytes(data, count * elem);
}
void w_u8s(tensor::ByteWriter& w, const std::vector<std::uint8_t>& v) {
  w_bytes_arr(w, v.data(), v.size(), 1);
}
void w_i32s(tensor::ByteWriter& w, const std::vector<std::int32_t>& v) {
  w_bytes_arr(w, v.data(), v.size(), sizeof(std::int32_t));
}
void w_i64s(tensor::ByteWriter& w, const std::vector<std::int64_t>& v) {
  w_bytes_arr(w, v.data(), v.size(), sizeof(std::int64_t));
}

/// Bounds-checked flat reader over the plan payload. Errors carry the
/// caller's context frames (file=…), mirroring tensor::ByteReader.
class PlanReader {
 public:
  PlanReader(std::string_view data, const ErrorContext& ctx)
      : data_(data), ctx_(ctx) {}

  std::uint32_t u32() { return fixed<std::uint32_t>(); }
  std::uint64_t u64() { return fixed<std::uint64_t>(); }
  double f64() { return fixed<double>(); }
  std::string str() {
    const std::uint64_t n = u64();
    ctx_.check(n <= remaining(), "plan payload truncated in string");
    return std::string(need(static_cast<std::size_t>(n)),
                       static_cast<std::size_t>(n));
  }
  template <typename T>
  std::vector<T> arr() {
    const std::uint64_t n = u64();
    ctx_.check(n <= remaining() / sizeof(T),
               "plan array length exceeds payload");
    std::vector<T> v(static_cast<std::size_t>(n));
    if (n > 0) {
      std::memcpy(v.data(), need(v.size() * sizeof(T)), v.size() * sizeof(T));
    }
    return v;
  }
  std::size_t remaining() const { return data_.size() - pos_; }
  void expect_end() const {
    ctx_.check(pos_ == data_.size(), "plan payload has trailing bytes");
  }

 private:
  template <typename T>
  T fixed() {
    T v;
    std::memcpy(&v, need(sizeof(T)), sizeof(T));
    return v;
  }
  const char* need(std::size_t n) {
    ctx_.check(n <= remaining(), "plan payload truncated");
    const char* at = data_.data() + pos_;
    pos_ += n;
    return at;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  const ErrorContext& ctx_;
};

std::string render_payload(const ExecutionPlan& p) {
  tensor::ByteWriter w;
  w.u64(p.num_nodes());
  w.str(p.name);
  w.str(p.module_text);
  w.u32(p.num_clusters);
  w.u32(p.feature_dim);
  w.u32(p.prompt_dim);
  w.u64(p.batch_hash);
  w.u64(p.num_cells);
  w.f64(p.power_uw);
  w_u8s(w, p.node_class);
  w_i32s(w, p.cell_type);
  w_i32s(w, p.cluster);
  w_i32s(w, p.level);
  w_i64s(w, p.fanin_offset);
  w_i32s(w, p.fanin);
  w_i64s(w, p.fanout_offset);
  w_i32s(w, p.fanout);
  w.f64s(p.output_load);
  w_i32s(w, p.topo);
  w_i64s(w, p.level_offset);
  w_i32s(w, p.level_nodes);
  w_i32s(w, p.inputs);
  w_i32s(w, p.outputs);
  w_i32s(w, p.flops);
  w_i32s(w, p.flop_pin_d);
  w_i32s(w, p.flop_pin_e);
  w_i32s(w, p.flop_pin_r);
  w_i64s(w, p.fwd_step_offset);
  w_i64s(w, p.turn_step_offset);
  w_i32s(w, p.group_cluster);
  w_i64s(w, p.group_node_offset);
  w_i64s(w, p.group_edge_offset);
  w_i32s(w, p.sched_nodes);
  w_i32s(w, p.edge_src);
  w_i32s(w, p.edge_dst);
  w_i32s(w, p.edge_dst_local);
  w_i32s(w, p.edge_pos);
  w_i32s(w, p.readout);
  w.f32s(p.features);
  w_i32s(w, p.cell_rows);
  w_i32s(w, p.arrival_rows);
  w_i32s(w, p.flop_rows);
  w.f32s(p.toggle);
  w.f32s(p.one_prob);
  w.f32s(p.arrival_norm);
  w.f32s(p.flop_arrival_norm);
  w.f32s(p.reg_prompt_emb);
  w.u64s(p.cone_hash);
  w_i32s(w, p.cone_id);
  w.u32(p.unique_cones);
  return w.take();
}

}  // namespace

std::string serialize(const ExecutionPlan& p) {
  return tensor::frame(kPlanMagic, kPlanVersion, render_payload(p));
}

ExecutionPlan deserialize(std::string_view blob, ErrorContext ctx) {
  const std::string_view payload =
      tensor::unframe(kPlanMagic, kPlanVersion, blob, ctx);

  PlanReader r(payload, ctx);
  ExecutionPlan p;
  const std::uint64_t n = r.u64();
  p.name = r.str();
  p.module_text = r.str();
  p.num_clusters = r.u32();
  p.feature_dim = r.u32();
  p.prompt_dim = r.u32();
  p.batch_hash = r.u64();
  p.num_cells = r.u64();
  p.power_uw = r.f64();
  p.node_class = r.arr<std::uint8_t>();
  p.cell_type = r.arr<std::int32_t>();
  p.cluster = r.arr<std::int32_t>();
  p.level = r.arr<std::int32_t>();
  p.fanin_offset = r.arr<std::int64_t>();
  p.fanin = r.arr<std::int32_t>();
  p.fanout_offset = r.arr<std::int64_t>();
  p.fanout = r.arr<std::int32_t>();
  p.output_load = r.arr<double>();
  p.topo = r.arr<std::int32_t>();
  p.level_offset = r.arr<std::int64_t>();
  p.level_nodes = r.arr<std::int32_t>();
  p.inputs = r.arr<std::int32_t>();
  p.outputs = r.arr<std::int32_t>();
  p.flops = r.arr<std::int32_t>();
  p.flop_pin_d = r.arr<std::int32_t>();
  p.flop_pin_e = r.arr<std::int32_t>();
  p.flop_pin_r = r.arr<std::int32_t>();
  p.fwd_step_offset = r.arr<std::int64_t>();
  p.turn_step_offset = r.arr<std::int64_t>();
  p.group_cluster = r.arr<std::int32_t>();
  p.group_node_offset = r.arr<std::int64_t>();
  p.group_edge_offset = r.arr<std::int64_t>();
  p.sched_nodes = r.arr<std::int32_t>();
  p.edge_src = r.arr<std::int32_t>();
  p.edge_dst = r.arr<std::int32_t>();
  p.edge_dst_local = r.arr<std::int32_t>();
  p.edge_pos = r.arr<std::int32_t>();
  p.readout = r.arr<std::int32_t>();
  p.features = r.arr<float>();
  p.cell_rows = r.arr<std::int32_t>();
  p.arrival_rows = r.arr<std::int32_t>();
  p.flop_rows = r.arr<std::int32_t>();
  p.toggle = r.arr<float>();
  p.one_prob = r.arr<float>();
  p.arrival_norm = r.arr<float>();
  p.flop_arrival_norm = r.arr<float>();
  p.reg_prompt_emb = r.arr<float>();
  p.cone_hash = r.arr<std::uint64_t>();
  p.cone_id = r.arr<std::int32_t>();
  p.unique_cones = r.u32();
  r.expect_end();

  ctx.check(p.num_nodes() == n, "plan node count disagrees with arrays");
  validate(p, ctx);
  return p;
}

void save(const ExecutionPlan& p, const std::string& path) {
  const std::string blob = serialize(p);
  tensor::atomic_write_file(path, [&](std::ostream& out) {
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  });
}

ExecutionPlan load(const std::string& path) {
  ErrorContext ctx;
  ctx.add("file", path);
  const std::string blob = tensor::read_file(path, ctx);
  return deserialize(blob, std::move(ctx));
}

// ---------------------------------------------------------------------------
// Cone table queries
// ---------------------------------------------------------------------------

std::vector<std::int32_t> dirty_cones(const ExecutionPlan& prev,
                                      const ExecutionPlan& next) {
  std::unordered_set<std::uint64_t> known;
  known.reserve(prev.num_nodes());
  for (std::size_t i = 0; i < prev.num_nodes(); ++i) {
    if (prev.klass(static_cast<std::int32_t>(i)) != NodeClass::kOutput) {
      known.insert(prev.cone_hash[i]);
    }
  }
  std::vector<std::int32_t> out;
  for (std::size_t i = 0; i < next.num_nodes(); ++i) {
    if (next.klass(static_cast<std::int32_t>(i)) == NodeClass::kOutput) {
      continue;
    }
    if (known.find(next.cone_hash[i]) == known.end()) {
      out.push_back(static_cast<std::int32_t>(i));
    }
  }
  return out;
}

std::vector<std::int32_t> invalidation_set(
    const ExecutionPlan& p, const std::vector<std::int32_t>& seeds) {
  std::vector<char> visited(p.num_nodes(), 0);
  std::vector<std::int32_t> stack;
  for (const std::int32_t s : seeds) {
    MOSS_CHECK(s >= 0 && static_cast<std::size_t>(s) < p.num_nodes(),
               "invalidation seed out of range");
    if (!visited[static_cast<std::size_t>(s)]) {
      visited[static_cast<std::size_t>(s)] = 1;
      stack.push_back(s);
    }
  }
  while (!stack.empty()) {
    const std::int32_t v = stack.back();
    stack.pop_back();
    const auto lo = p.fanout_offset[static_cast<std::size_t>(v)];
    const auto hi = p.fanout_offset[static_cast<std::size_t>(v) + 1];
    for (auto e = lo; e < hi; ++e) {
      const std::int32_t f = p.fanout[static_cast<std::size_t>(e)];
      if (!visited[static_cast<std::size_t>(f)]) {
        visited[static_cast<std::size_t>(f)] = 1;
        stack.push_back(f);
      }
    }
  }
  std::vector<std::int32_t> out;
  for (std::size_t i = 0; i < visited.size(); ++i) {
    if (visited[i]) out.push_back(static_cast<std::int32_t>(i));
  }
  return out;
}

}  // namespace moss::plan
