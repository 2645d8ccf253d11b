#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/features.hpp"
#include "core_util/error.hpp"
#include "netlist/netlist.hpp"
#include "tensor/serialize.hpp"

namespace moss::plan {

/// Plan blob container format (v1):
///
///   magic "MOSSPLN1" | u32 format_version | u32 reserved(0)
///   u64 payload_bytes | u32 payload_crc32 | payload
///
/// The header is the shared tensor::frame/unframe codec (the one MOSSSEG1
/// and MOSSMFT1 use). Little-endian throughout: writes go through
/// tensor::atomic_write_file (tmp + fsync + rename), loads do one read,
/// verify the CRC32 over the whole payload, then slice the flat arrays out
/// — no pointer fixup, no per-node allocation.
inline constexpr char kPlanMagic[8] = {'M', 'O', 'S', 'S', 'P', 'L', 'N', '1'};
inline constexpr std::uint32_t kPlanVersion = 1;
inline constexpr std::size_t kPlanHeaderBytes = tensor::kFrameHeaderBytes;

/// Coarse node classification, precomputed so cone hashing and the cone
/// queries never consult the cell library to branch.
enum class NodeClass : std::uint8_t {
  kInput = 0,   ///< primary input
  kOutput = 1,  ///< primary output (excluded from the GNN)
  kComb = 2,    ///< combinational cell
  kFlop = 3,    ///< sequential cell (DFF)
  kTie = 4,     ///< constant driver
};

/// A finalized netlist + cluster assignment + GNN schedule lowered into one
/// flat CSR/SoA structure ("execution plan"): a stored batch. Adjacency,
/// per-level ranges, the two-phase update schedule, node features and label
/// rows live in contiguous arrays indexed by NodeId, so the whole plan
/// round-trips through a single CRC-checked blob and to_batch() gives the
/// model-ready batch back without a netlist, encoder or clustering.
///
/// Invariants (established by compile(), re-checked on load):
///   - all per-node arrays have length num_nodes(); offsets are monotone
///     with offset[0] == 0 and offset[N] == pool size
///   - `topo` is the netlist's finalize() order verbatim
///   - the schedule arrays are the gnn::Graph steps flattened in order, so
///     to_batch() reconstructs a batch whose content hash equals
///     `batch_hash`
struct ExecutionPlan {
  // --- identity ------------------------------------------------------------
  std::string name;
  std::string module_text;
  std::uint32_t num_clusters = 1;  ///< aggregator count (ports included)
  std::uint32_t feature_dim = 0;   ///< F; 0 = batch without features
  std::uint32_t prompt_dim = 0;    ///< register-prompt embedding width
  std::uint64_t batch_hash = 0;    ///< core::batch_content_hash of the source
  std::uint64_t num_cells = 0;
  double power_uw = 0.0;

  // --- structure (indexed by NodeId) --------------------------------------
  std::vector<std::uint8_t> node_class;     ///< NodeClass per node
  std::vector<std::int32_t> cell_type;      ///< CellTypeId; -1 for ports
  std::vector<std::int32_t> cluster;        ///< aggregator id; -1 for POs
  std::vector<std::int32_t> level;          ///< combinational level
  std::vector<std::int64_t> fanin_offset;   ///< N+1; CSR into `fanin`
  std::vector<std::int32_t> fanin;          ///< pin-ordered driver ids
  std::vector<std::int64_t> fanout_offset;  ///< N+1; CSR into `fanout`
  std::vector<std::int32_t> fanout;
  std::vector<double> output_load;          ///< precomputed pin-cap sums
  std::vector<std::int32_t> topo;           ///< finalize() topo order
  /// Per-level ranges over combinational cells: level l (0-based) owns
  /// level_nodes[level_offset[l] .. level_offset[l+1]), ids ascending —
  /// the same order build_batch schedules forward steps in.
  std::vector<std::int64_t> level_offset;
  std::vector<std::int32_t> level_nodes;
  std::vector<std::int32_t> inputs, outputs, flops;
  /// Per `flops` entry: fanin indices of the D/E/R pins (-1 when the cell
  /// type has no such pin).
  std::vector<std::int32_t> flop_pin_d, flop_pin_e, flop_pin_r;

  // --- two-phase schedule (gnn::Graph steps, flattened) --------------------
  std::vector<std::int64_t> fwd_step_offset;   ///< Sf+1 ranges over groups
  std::vector<std::int64_t> turn_step_offset;  ///< St+1, continues after fwd
  std::vector<std::int32_t> group_cluster;     ///< G
  std::vector<std::int64_t> group_node_offset; ///< G+1 into sched_nodes
  std::vector<std::int64_t> group_edge_offset; ///< G+1 into edge pools
  std::vector<std::int32_t> sched_nodes;
  std::vector<std::int32_t> edge_src, edge_dst, edge_dst_local, edge_pos;
  std::vector<std::int32_t> readout;

  // --- features / rows / labels (CircuitBatch mirror) ----------------------
  std::vector<float> features;  ///< N×F row-major
  std::vector<std::int32_t> cell_rows, arrival_rows, flop_rows;
  std::vector<float> toggle, one_prob, arrival_norm, flop_arrival_norm;
  std::vector<float> reg_prompt_emb;  ///< |flops|×prompt_dim row-major

  // --- cone fingerprints ----------------------------------------------------
  /// Stored structural fingerprint of each node's combinational fan-in cone
  /// (its h0 identity for leaves): cell types, clusters, feature rows and
  /// pin-ordered fanins. dirty_cones() compares two plans through it.
  /// 0 for primary outputs (not part of the GNN).
  std::vector<std::uint64_t> cone_hash;
  /// Dense cone ids: cone_id[i] == cone_id[j] iff cone_hash[i] ==
  /// cone_hash[j]; assigned first-seen in ascending NodeId order. -1 for
  /// primary outputs. unique_cones counts distinct ids.
  std::vector<std::int32_t> cone_id;
  std::uint32_t unique_cones = 0;

  std::size_t num_nodes() const { return node_class.size(); }
  NodeClass klass(std::int32_t id) const {
    return static_cast<NodeClass>(node_class[static_cast<std::size_t>(id)]);
  }
};

/// Lower a finalized netlist + its model-ready batch into a plan. The
/// schedule/features/labels are copied from the batch verbatim, so
/// to_batch(compile(nl, batch)) hashes to core::content_hash(batch).
ExecutionPlan compile(const netlist::Netlist& nl,
                      const core::CircuitBatch& batch);

/// Convenience: build_batch + compile in one step.
ExecutionPlan compile(const data::LabeledCircuit& lc,
                      const lm::TextEncoder& enc,
                      const core::FeatureConfig& cfg);

/// Materialize the model-ready batch back from a plan (one allocation pass;
/// no netlist, encoder or clustering needed). The result's content_hash is
/// the plan's batch_hash.
core::CircuitBatch to_batch(const ExecutionPlan& plan);

/// Blob I/O. serialize() renders header+payload; deserialize() verifies
/// magic/version/size/CRC and re-checks structural invariants, failing with
/// ContextError frames (file=…, reason=…) on any mismatch. save() writes
/// through tensor::atomic_write_file so a crash or injected fault never
/// corrupts an existing plan.
std::string serialize(const ExecutionPlan& plan);
ExecutionPlan deserialize(std::string_view blob, ErrorContext ctx);
void save(const ExecutionPlan& plan, const std::string& path);
/// One read of the whole file (tensor::read_file), then deserialize().
ExecutionPlan load(const std::string& path);

/// Nodes of `next` whose cone hash does not occur anywhere in `prev` — the
/// cones an incremental edit dirtied. Primary outputs are never reported.
std::vector<std::int32_t> dirty_cones(const ExecutionPlan& prev,
                                      const ExecutionPlan& next);

/// Forward closure of `seeds` over the fanout CSR (seeds included), sorted
/// ascending: the nodes whose cached state a change to `seeds` invalidates.
std::vector<std::int32_t> invalidation_set(const ExecutionPlan& plan,
                                           const std::vector<std::int32_t>& seeds);

}  // namespace moss::plan
