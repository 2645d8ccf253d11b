// Workload entry points of the repository benchmark.
#pragma once

#include "common.hpp"
#include "sat/oracle.hpp"

namespace perfbench {

/// Fixed open-loop arrival rates (req/s) of the two serving workloads.
/// perfbench/workloads.json records them beside each workload's rationale.
struct Rates {
  double cold = 0.0;
  double warm = 0.0;
};

/// serve_cold / serve_warm: protocol-shaped requests through
/// serve::InferenceEngine. End-to-end metrics only.
Result run_serve(const Options& opt, bool warm, double rate);

/// train: label, fine-tune, build batches, pretrain and align.
Result run_train(const Options& opt);

/// The traced run: replays a seeded sample of every workload's inputs one
/// call at a time and reports the per-layer table. Independent of
/// opt.workload, so every workload's traced run reports every layer.
Result run_trace(const Options& opt, const Rates& rates);

/// SAT oracle checks seen by the traced run: the VERIFY pairs (serving
/// half) and the FEP-label proofs (training half).
struct SatTally {
  std::uint64_t checks = 0;
  std::uint64_t decided = 0;  ///< verdicts other than UNKNOWN
  std::uint64_t conflicts = 0;
  void add(const moss::sat::OracleResult& r) {
    ++checks;
    if (r.verdict != moss::sat::Verdict::kUnknown) ++decided;
    conflicts += r.stats.conflicts;
  }
};

// Halves of the traced run (serve.cpp / train.cpp).
void trace_serve(const Options& opt, const Rates& rates, Tracer& tr,
                 SatTally& sat, Result& out);
void trace_train(const Options& opt, Tracer& tr, SatTally& sat, Result& out);

}  // namespace perfbench
