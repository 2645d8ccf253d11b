// moss::plan test suite: compile invariants, blob round-trip + corruption
// matrix, cone-fingerprint queries (dirty cones, invalidation closure) and
// blob determinism across labeling thread counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "cell/library.hpp"
#include "core/features.hpp"
#include "core_util/error.hpp"
#include "core_util/fault.hpp"
#include "core_util/hash.hpp"
#include "data/dataset.hpp"
#include "data/generators.hpp"
#include "gnn/two_phase_gnn.hpp"
#include "plan/plan.hpp"

namespace moss {
namespace {

using cell::standard_library;
using core::CircuitBatch;
using netlist::NodeId;

// ---------------------------------------------------------------------------
// helpers

struct FaultGuard {
  ~FaultGuard() { testing::disarm_all_faults(); }
};

const lm::TextEncoder& enc() {
  static lm::TextEncoder e({2048, 16, 9});
  return e;
}

data::LabeledCircuit labeled(const std::string& family, int size = 1,
                             std::uint64_t seed = 0xC0FFEE) {
  data::DesignSpec spec{family, size, seed, ""};
  data::DatasetConfig cfg;
  cfg.sim_cycles = 200;
  return data::label_circuit(spec, standard_library(), cfg);
}

std::string tmp_path(const char* stem) {
  return ::testing::TempDir() + stem;
}

// ---------------------------------------------------------------------------
// compile invariants

TEST(PlanCompile, ShapesAndInvariants) {
  const auto lc = labeled("gray_counter", 2);
  const CircuitBatch b = core::build_batch(lc, enc(), {});
  const plan::ExecutionPlan p = plan::compile(lc.netlist, b);

  const std::size_t n = lc.netlist.num_nodes();
  ASSERT_EQ(p.num_nodes(), n);
  EXPECT_EQ(p.cell_type.size(), n);
  EXPECT_EQ(p.cluster.size(), n);
  EXPECT_EQ(p.level.size(), n);
  EXPECT_EQ(p.output_load.size(), n);
  EXPECT_EQ(p.topo.size(), n);
  EXPECT_EQ(p.cone_hash.size(), n);
  EXPECT_EQ(p.cone_id.size(), n);
  EXPECT_EQ(p.fanin_offset.size(), n + 1);
  EXPECT_EQ(p.fanout_offset.size(), n + 1);
  EXPECT_EQ(p.fanin_offset.front(), 0);
  EXPECT_EQ(static_cast<std::size_t>(p.fanin_offset.back()), p.fanin.size());
  EXPECT_EQ(p.batch_hash, core::content_hash(b));
  EXPECT_EQ(p.num_cells, lc.netlist.num_cells());
  EXPECT_EQ(p.feature_dim,
            static_cast<std::uint32_t>(b.graph.features.cols()));
  EXPECT_EQ(p.flops.size(), lc.netlist.flops().size());
  EXPECT_EQ(p.flop_pin_d.size(), p.flops.size());

  // Node classes and adjacency mirror the netlist exactly.
  std::size_t comb = 0, flops = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<NodeId>(i);
    const auto& node = lc.netlist.node(id);
    const auto begin = static_cast<std::size_t>(p.fanin_offset[i]);
    const auto end = static_cast<std::size_t>(p.fanin_offset[i + 1]);
    ASSERT_EQ(end - begin, node.fanin.size());
    for (std::size_t k = 0; k < node.fanin.size(); ++k) {
      EXPECT_EQ(p.fanin[begin + k], static_cast<std::int32_t>(node.fanin[k]));
    }
    switch (p.klass(static_cast<std::int32_t>(i))) {
      case plan::NodeClass::kComb:
        ++comb;
        EXPECT_TRUE(lc.netlist.is_comb_cell(id));
        break;
      case plan::NodeClass::kFlop:
        ++flops;
        EXPECT_TRUE(lc.netlist.is_flop(id));
        break;
      default:
        break;
    }
    EXPECT_DOUBLE_EQ(p.output_load[i], lc.netlist.output_load(id));
  }
  EXPECT_GT(comb, 0u);
  EXPECT_EQ(flops, p.flops.size());

  // Cone ids are a dense relabeling of cone hashes.
  std::unordered_map<std::uint64_t, std::int32_t> seen;
  std::int32_t max_id = -1;
  for (std::size_t i = 0; i < n; ++i) {
    if (p.klass(static_cast<std::int32_t>(i)) == plan::NodeClass::kOutput) {
      EXPECT_EQ(p.cone_id[i], -1);
      EXPECT_EQ(p.cone_hash[i], 0u);
      continue;
    }
    const auto [it, fresh] = seen.emplace(p.cone_hash[i], p.cone_id[i]);
    EXPECT_EQ(it->second, p.cone_id[i]) << "node " << i;
    if (fresh) {
      EXPECT_EQ(p.cone_id[i], ++max_id) << "ids not first-seen dense";
    }
  }
  EXPECT_EQ(p.unique_cones, seen.size());
}

// ---------------------------------------------------------------------------
// blob round-trip + corruption

TEST(PlanBlob, RoundTripIsByteStable) {
  const auto lc = labeled("alu", 1);
  const CircuitBatch b = core::build_batch(lc, enc(), {});
  const plan::ExecutionPlan p = plan::compile(lc.netlist, b);

  const std::string blob = plan::serialize(p);
  ASSERT_GT(blob.size(), plan::kPlanHeaderBytes);
  EXPECT_EQ(std::memcmp(blob.data(), plan::kPlanMagic, 8), 0);

  const plan::ExecutionPlan q = plan::deserialize(blob, ErrorContext{});
  EXPECT_EQ(q.name, p.name);
  EXPECT_EQ(q.batch_hash, p.batch_hash);
  EXPECT_EQ(q.unique_cones, p.unique_cones);
  EXPECT_EQ(q.cone_hash, p.cone_hash);
  EXPECT_EQ(q.features, p.features);
  // Byte-stability of re-serialization proves every field survived.
  EXPECT_EQ(plan::serialize(q), blob);
}

TEST(PlanBlob, ToBatchReconstructsContentHash) {
  const auto lc = labeled("signed_mac", 1);
  const CircuitBatch b = core::build_batch(lc, enc(), {});
  const plan::ExecutionPlan p = plan::compile(lc.netlist, b);
  const CircuitBatch r = plan::to_batch(p);
  EXPECT_EQ(core::content_hash(r), p.batch_hash);
  EXPECT_EQ(core::batch_content_hash(r), core::batch_content_hash(b));
  EXPECT_EQ(r.cell_rows.size(), b.cell_rows.size());
  EXPECT_EQ(r.flop_rows.size(), b.flop_rows.size());
  EXPECT_EQ(r.toggle, b.toggle);
  EXPECT_EQ(r.module_text, b.module_text);
  EXPECT_DOUBLE_EQ(r.power_uw, b.power_uw);
}

TEST(PlanBlob, CorruptOneByteAnywhereIsDetected) {
  const auto lc = labeled("ctrl_fsm", 1);
  const CircuitBatch b = core::build_batch(lc, enc(), {});
  const std::string blob = plan::serialize(plan::compile(lc.netlist, b));

  // Hit every header field and a spread of payload offsets: each single-byte
  // flip must fail CRC/magic/version/size validation — never load quietly.
  std::vector<std::size_t> offsets = {0, 3, 8, 12, 16, 24,
                                      plan::kPlanHeaderBytes,
                                      plan::kPlanHeaderBytes + 17};
  for (std::size_t off = plan::kPlanHeaderBytes; off < blob.size();
       off += blob.size() / 13 + 1) {
    offsets.push_back(off);
  }
  for (const std::size_t off : offsets) {
    ASSERT_LT(off, blob.size());
    std::string bad = blob;
    bad[off] = static_cast<char>(bad[off] ^ 0x40);
    EXPECT_THROW(plan::deserialize(bad, ErrorContext{}), ContextError)
        << "offset " << off;
  }
  // Truncation at any prefix length is also rejected.
  for (const std::size_t len : {std::size_t{0}, std::size_t{7},
                                plan::kPlanHeaderBytes, blob.size() - 1}) {
    EXPECT_THROW(
        plan::deserialize(std::string_view(blob).substr(0, len),
                          ErrorContext{}),
        ContextError)
        << "length " << len;
  }
}

TEST(PlanBlob, SaveIsAtomicUnderRenameFault) {
  const FaultGuard guard;
  const auto lc = labeled("shift_reg", 1);
  const CircuitBatch b = core::build_batch(lc, enc(), {});
  const plan::ExecutionPlan p = plan::compile(lc.netlist, b);
  const std::string path = tmp_path("plan_atomic.mossplan");

  plan::save(p, path);
  const plan::ExecutionPlan loaded = plan::load(path);
  EXPECT_EQ(plan::serialize(loaded), plan::serialize(p));

  // A crash injected at the rename must leave the existing blob untouched.
  testing::arm_fault("serialize.rename");
  const auto lc2 = labeled("shift_reg", 2);
  const CircuitBatch b2 = core::build_batch(lc2, enc(), {});
  EXPECT_THROW(plan::save(plan::compile(lc2.netlist, b2), path),
               testing::InjectedFault);
  const plan::ExecutionPlan survivor = plan::load(path);
  EXPECT_EQ(plan::serialize(survivor), plan::serialize(p));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// every design family: stored structure and stored batch

class PlanFamilySweep : public ::testing::TestWithParam<std::string> {};

TEST_P(PlanFamilySweep, StoredBatchForwardMatchesBuiltBatch) {
  // A plan is a stored batch: after a blob round-trip, to_batch() must
  // drive the GNN to exactly the rows the freshly built batch produces.
  const auto lc = labeled(GetParam(), 1, 0xBEEF);
  const CircuitBatch b = core::build_batch(lc, enc(), {});
  const plan::ExecutionPlan p = plan::deserialize(
      plan::serialize(plan::compile(lc.netlist, b)), ErrorContext{});
  const CircuitBatch stored = plan::to_batch(p);
  EXPECT_EQ(core::content_hash(stored), core::content_hash(b));

  gnn::GnnConfig gc;
  gc.feature_dim = b.graph.features.cols();
  gc.hidden = 16;
  gc.num_aggregators = b.graph.num_clusters;
  gc.rounds = 1;
  Rng rng(fnv1a64(GetParam()));
  tensor::ParameterSet params;
  const gnn::TwoPhaseGnn gnn(gc, rng, params);

  const tensor::Tensor want = gnn.run(b.graph);
  const tensor::Tensor got = gnn.run(stored.graph);
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                        want.size() * sizeof(float)),
            0)
      << GetParam();
}

TEST_P(PlanFamilySweep, StructureMirrorsNetlist) {
  // The flat arrays are the netlist sim::Simulator and sta::TimingAnalysis
  // walk, copied verbatim: topo order, ports, adjacency, loads, levels and
  // flop control pins.
  const auto lc = labeled(GetParam(), 1, 0xF00D);
  const netlist::Netlist& nl = lc.netlist;
  const plan::ExecutionPlan p = plan::compile(lc, enc(), {});
  ASSERT_EQ(p.num_nodes(), nl.num_nodes());
  const auto ids = [](const std::vector<NodeId>& v) {
    return std::vector<std::int32_t>(v.begin(), v.end());
  };
  EXPECT_EQ(p.topo, ids(nl.topo_order()));
  EXPECT_EQ(p.inputs, ids(nl.inputs()));
  EXPECT_EQ(p.outputs, ids(nl.outputs()));
  EXPECT_EQ(p.flops, ids(nl.flops()));
  for (std::size_t i = 0; i < nl.num_nodes(); ++i) {
    const auto id = static_cast<NodeId>(i);
    const netlist::Node& n = nl.node(id);
    const auto fi = static_cast<std::size_t>(p.fanin_offset[i]);
    const auto fo = static_cast<std::size_t>(p.fanout_offset[i]);
    ASSERT_EQ(static_cast<std::size_t>(p.fanin_offset[i + 1]) - fi,
              n.fanin.size());
    ASSERT_EQ(static_cast<std::size_t>(p.fanout_offset[i + 1]) - fo,
              n.fanout.size());
    for (std::size_t k = 0; k < n.fanin.size(); ++k) {
      EXPECT_EQ(p.fanin[fi + k], static_cast<std::int32_t>(n.fanin[k]));
    }
    for (std::size_t k = 0; k < n.fanout.size(); ++k) {
      EXPECT_EQ(p.fanout[fo + k], static_cast<std::int32_t>(n.fanout[k]));
    }
    EXPECT_EQ(p.level[i], n.level) << GetParam() << " node " << i;
    EXPECT_EQ(p.output_load[i], nl.output_load(id));
  }
  for (std::size_t f = 0; f < p.flops.size(); ++f) {
    const cell::CellType& t = nl.type_of(static_cast<NodeId>(p.flops[f]));
    EXPECT_EQ(p.flop_pin_d[f], t.pin_index("D"));
    EXPECT_EQ(p.flop_pin_e[f], t.pin_index("E"));
    EXPECT_EQ(p.flop_pin_r[f], t.pin_index("R"));
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, PlanFamilySweep,
                         ::testing::ValuesIn(data::families()),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// incremental invalidation

TEST(PlanIncremental, IdenticalPlansHaveNoDirtyCones) {
  const auto lc = labeled("ctrl_fsm", 1);
  const plan::ExecutionPlan p = plan::compile(lc, enc(), {});
  EXPECT_TRUE(plan::dirty_cones(p, p).empty());
}

TEST(PlanIncremental, EditDirtiesConesAndInvalidationCoversFanout) {
  const auto prev = plan::compile(labeled("alu", 1), enc(), {});
  const auto next = plan::compile(labeled("alu", 2), enc(), {});
  const std::vector<std::int32_t> dirty = plan::dirty_cones(prev, next);
  EXPECT_FALSE(dirty.empty());
  for (const std::int32_t id : dirty) {
    EXPECT_NE(next.klass(id), plan::NodeClass::kOutput);
  }

  const std::vector<std::int32_t> seeds = {next.inputs.front()};
  const std::vector<std::int32_t> inval = plan::invalidation_set(next, seeds);
  ASSERT_FALSE(inval.empty());
  EXPECT_TRUE(std::is_sorted(inval.begin(), inval.end()));
  // Closure property: every fanout of a member is a member.
  std::vector<bool> in_set(next.num_nodes(), false);
  for (const std::int32_t id : inval) {
    in_set[static_cast<std::size_t>(id)] = true;
  }
  EXPECT_TRUE(in_set[static_cast<std::size_t>(seeds[0])]);
  for (const std::int32_t id : inval) {
    const auto begin = static_cast<std::size_t>(next.fanout_offset[id]);
    const auto end = static_cast<std::size_t>(next.fanout_offset[id + 1]);
    for (std::size_t k = begin; k < end; ++k) {
      EXPECT_TRUE(in_set[static_cast<std::size_t>(next.fanout[k])])
          << "fanout of " << id << " escaped the closure";
    }
  }
}

// ---------------------------------------------------------------------------
// determinism

TEST(PlanDeterminism, BlobIsIdenticalAcrossLabelingThreadCounts) {
  const std::vector<data::DesignSpec> specs = {
      {"gray_counter", 1, 0xD5, ""}, {"alu", 1, 0xD6, ""}};
  data::DatasetConfig one, many;
  one.sim_cycles = many.sim_cycles = 200;
  one.threads = 1;
  many.threads = 7;
  const auto ds1 = data::build_dataset(specs, standard_library(), one);
  const auto ds7 = data::build_dataset(specs, standard_library(), many);
  ASSERT_EQ(ds1.size(), ds7.size());
  for (std::size_t i = 0; i < ds1.size(); ++i) {
    const std::string blob1 = plan::serialize(
        plan::compile(ds1[i].netlist, core::build_batch(ds1[i], enc(), {})));
    const std::string blob7 = plan::serialize(
        plan::compile(ds7[i].netlist, core::build_batch(ds7[i], enc(), {})));
    EXPECT_EQ(blob1, blob7) << specs[i].family;
  }
}

}  // namespace
}  // namespace moss
