// Plan blob I/O: deserializing stored MOSSPLN1 plans vs rebuilding their
// batches from the labeled circuits with core::build_batch.
//
// Reported, not gated: the row records whether loading a stored plan is
// cheaper than rebuilding the batch on this host.
//
// Output: stdout table + results/bench_plan.json.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/features.hpp"
#include "harness.hpp"
#include "json_report.hpp"
#include "plan/plan.hpp"

using namespace moss;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main() {
  const bench::Scale scale = bench::Scale::from_env();
  const bool smoke = scale.sim_cycles < 1000;
  const std::size_t kPool = smoke ? 12 : 32;

  std::printf("=== Plan blob load vs batch rebuild ===\n\n");

  const auto& lib = cell::standard_library();
  data::DatasetConfig dcfg;
  dcfg.sim_cycles = smoke ? 150 : 400;
  dcfg.threads = scale.threads;

  const auto fams = data::families();
  std::vector<data::DesignSpec> specs;
  for (std::size_t i = 0; i < kPool; ++i) {
    data::DesignSpec s;
    s.family = fams[i % fams.size()];
    s.size_hint = 1 + static_cast<int>(i / fams.size()) % 2;
    s.seed = 0xCAFE + i;
    s.name = s.family + "_pln" + std::to_string(i);
    specs.push_back(std::move(s));
  }
  std::fprintf(stderr, "[labeling %zu circuits]\n", kPool);
  const auto lcs = data::build_dataset(specs, lib, dcfg);

  const lm::TextEncoder enc({2048, 16, 9});
  std::size_t blob_bytes = 0;
  std::vector<std::string> blobs;
  for (const auto& lc : lcs) {
    blobs.push_back(plan::serialize(plan::compile(lc, enc, {})));
    blob_bytes += blobs.back().size();
  }

  double load_s = 0.0;
  {
    const auto t0 = Clock::now();
    for (const auto& blob : blobs) {
      const plan::ExecutionPlan p = plan::deserialize(blob, ErrorContext{});
      if (p.num_nodes() == 0) return 2;
    }
    load_s = seconds_since(t0);
  }
  double rebuild_s = 0.0;
  {
    const auto t0 = Clock::now();
    for (const auto& lc : lcs) {
      const core::CircuitBatch b = core::build_batch(lc, enc, {});
      if (b.graph.num_nodes == 0) return 2;
    }
    rebuild_s = seconds_since(t0);
  }
  std::printf("blob i/o: %zu plans, %.1f KB total | load %.1f ms | "
              "build_batch %.1f ms (%.1fx)\n",
              kPool, static_cast<double>(blob_bytes) / 1024.0, load_s * 1e3,
              rebuild_s * 1e3, rebuild_s / load_s);

  bench::JsonReport report("bench_plan");
  report.metric("pool", static_cast<std::int64_t>(kPool));
  report.metric("blob_bytes", static_cast<std::int64_t>(blob_bytes));
  report.metric("blob_load_s", load_s);
  report.metric("batch_rebuild_s", rebuild_s);
  if (!report.write()) {
    std::fprintf(stderr, "warning: could not write results/bench_plan.json\n");
  }
  return 0;
}
