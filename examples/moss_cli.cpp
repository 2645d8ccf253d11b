// moss_cli — command-line driver for the EDA substrate flow.
//
//   moss_cli lint   <design>             RTL lint warnings
//   moss_cli synth  <design> [out.v]     synthesize, write structural Verilog
//   moss_cli report <design>             stats + timing + power report
//   moss_cli fault  <design> [cycles]    stuck-at coverage
//   moss_cli formal <design_a> <design_b>  equivalence (BDD, sim fallback)
//   moss_cli sat verify <design_a> <design_b>  exact SAT equivalence
//   moss_cli sat mine <design>           mutate -> prove -> export negatives
//   moss_cli corrupt <design>            emit corrupted-but-parseable RTL
//                                        variants + provenance JSONL
//   moss_cli vcd    <design> <out.vcd> [cycles]  waveform dump
//   moss_cli train  <design>... [--threads N] [--checkpoint BASE]
//                   [--checkpoint-every N] [--resume] [--save CKPT]
//                                        train a small MOSS model
//   moss_cli ckpt   <file.ckpt>          validate + summarize a checkpoint
//
// <design> is either a path to a Verilog file or "family:size" (e.g.
// "alu:2") naming a generated design.
//
// Exit codes: 0 success, 1 analysis found problems (lint/formal/reset
// mismatches), 2 usage or general error, 3 checkpoint missing/corrupt.

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "moss.hpp"

using namespace moss;

namespace {

rtl::Module load_design(const std::string& arg) {
  const auto colon = arg.find(':');
  if (arg.size() > 2 && arg.substr(arg.size() - 2) == ".v") {
    std::ifstream in(arg);
    MOSS_CHECK(in.is_open(), "cannot open " + arg);
    std::stringstream ss;
    ss << in.rdbuf();
    return rtl::parse_verilog(ss.str());
  }
  data::DesignSpec spec;
  spec.family = colon == std::string::npos ? arg : arg.substr(0, colon);
  spec.size_hint =
      colon == std::string::npos ? 2 : std::atoi(arg.c_str() + colon + 1);
  spec.seed = 1;
  spec.name = spec.family + "_cli";
  return data::generate(spec);
}

netlist::Netlist synth_design(const std::string& arg) {
  return synth::synthesize(load_design(arg), cell::standard_library());
}

int cmd_lint(const std::string& arg) {
  const rtl::Module m = load_design(arg);
  const auto issues = rtl::lint(m);
  if (issues.empty()) {
    std::printf("%s: clean (no lint warnings)\n", m.name.c_str());
    return 0;
  }
  std::fputs(rtl::to_string(issues).c_str(), stdout);
  return 1;
}

int cmd_synth(const std::string& arg, const char* out_path) {
  const netlist::Netlist nl = synth_design(arg);
  const auto st = netlist::stats(nl);
  std::printf("%s: %zu cells (%zu flops), %d levels, area %.1f\n",
              nl.name().c_str(), st.cells, st.flops, st.levels, st.area);
  const std::string v = netlist::to_structural_verilog(nl);
  if (out_path) {
    std::ofstream out(out_path);
    MOSS_CHECK(out.is_open(), std::string("cannot write ") + out_path);
    out << v;
    std::printf("wrote %s\n", out_path);
  } else {
    std::fputs(v.c_str(), stdout);
  }
  return 0;
}

int cmd_report(const std::string& arg) {
  const netlist::Netlist nl = synth_design(arg);
  const auto st = netlist::stats(nl);
  std::printf("== %s ==\n%zu cells, %zu flops, %zu PIs, %zu POs, %d levels\n\n",
              nl.name().c_str(), st.cells, st.flops, st.inputs, st.outputs,
              st.levels);
  const sta::TimingAnalysis ta(nl);
  std::fputs(ta.report_timing(2).c_str(), stdout);
  Rng rng(1);
  const auto act = sim::random_activity(nl, 2000, rng);
  const auto pw = power::analyze_power(nl, act.toggle);
  std::printf("\npower @1GHz: %.1f uW (dynamic %.1f, leakage %.1f)\n",
              pw.total_uw, pw.dynamic_uw, pw.leakage_uw);
  return 0;
}

int cmd_fault(const std::string& arg, std::uint64_t cycles) {
  const netlist::Netlist nl = synth_design(arg);
  Rng rng(2);
  const auto faults = sim::enumerate_faults(nl);
  const auto campaign = sim::simulate_faults(nl, faults, cycles, rng);
  std::printf("%s: %zu faults, %zu detected in %llu cycles -> %.1f%% "
              "coverage\n",
              nl.name().c_str(), faults.size(), campaign.detected,
              static_cast<unsigned long long>(cycles),
              100 * campaign.coverage);
  return 0;
}

int cmd_formal(const std::string& a_arg, const std::string& b_arg) {
  const rtl::Module ma = load_design(a_arg);
  const rtl::Module mb = load_design(b_arg);
  const netlist::Netlist a =
      synth::synthesize(ma, cell::standard_library());
  const netlist::Netlist b =
      synth::synthesize(mb, cell::standard_library());
  const bdd::FormalResult res = bdd::check_equivalence_formal(a, b);
  switch (res.status) {
    case bdd::FormalResult::Status::kEquivalent:
      std::printf("EQUIVALENT (formal): %s\n", res.detail.c_str());
      return 0;
    case bdd::FormalResult::Status::kNotEquivalent:
      std::printf("NOT EQUIVALENT: %s\n", res.detail.c_str());
      return 1;
    case bdd::FormalResult::Status::kResourceLimit: {
      std::printf("BDD limit hit (%s); falling back to co-simulation\n",
                  res.detail.c_str());
      Rng rng(3);
      const auto sim_res = sim::check_equivalence(ma, b, 2000, rng);
      std::printf("%s (simulation, %llu cycles)\n",
                  sim_res.equivalent ? "no mismatch found" : "MISMATCH",
                  static_cast<unsigned long long>(sim_res.cycles_checked));
      return sim_res.equivalent ? 0 : 1;
    }
  }
  return 2;
}

// sat verify: exact miter-based equivalence via the CDCL oracle. Unlike
// `formal` (BDD with a simulation fallback that can only say "no mismatch
// found"), every answer here is definitive or typed UNKNOWN — and every
// NOT_EQUIVALENT ships a counterexample replayed through aig_sim.
int cmd_sat_verify(const std::string& a_arg, const std::string& b_arg,
                   int frames, std::uint64_t conflicts) {
  const netlist::Netlist a = synth_design(a_arg);
  const netlist::Netlist b = synth_design(b_arg);
  sat::OracleConfig cfg;
  cfg.max_frames = frames;
  cfg.conflict_budget = conflicts;
  const sat::EquivOracle oracle(cfg);
  const sat::OracleResult res = oracle.check(a, b);
  std::printf("%s: %s\n", sat::to_string(res.verdict), res.detail.c_str());
  std::printf("  conflicts=%llu decisions=%llu solver_calls=%zu "
              "miter_ands=%zu frames_checked=%d\n",
              static_cast<unsigned long long>(res.stats.conflicts),
              static_cast<unsigned long long>(res.stats.decisions),
              res.stats.solver_calls, res.stats.miter_ands,
              res.frames_checked);
  if (res.verdict == sat::Verdict::kNotEquivalent &&
      !res.cex.inputs.empty()) {
    std::printf("  counterexample (%s, %zu frame(s), mismatch at %s):\n",
                res.cex.confirmed ? "sim-confirmed" : "unconfirmed",
                res.cex.frames.size(), res.cex.mismatch_output.c_str());
    for (std::size_t f = 0; f < res.cex.frames.size(); ++f) {
      std::printf("    f%zu:", f);
      for (std::size_t i = 0; i < res.cex.inputs.size(); ++i) {
        std::printf(" %s=%d", res.cex.inputs[i].c_str(),
                    res.cex.frames[f][i] != 0 ? 1 : 0);
      }
      std::printf("\n");
    }
  }
  switch (res.verdict) {
    case sat::Verdict::kEquivalent: return 0;
    case sat::Verdict::kNotEquivalent: return 1;
    case sat::Verdict::kUnknown: return 4;
  }
  return 2;
}

int cmd_sat_mine(const std::string& arg, std::size_t count,
                 std::uint64_t seed, const std::string& out_dir,
                 float margin) {
  const netlist::Netlist golden = synth_design(arg);
  sat::MinerConfig cfg;
  cfg.seed = seed;
  cfg.candidates = count;
  cfg.margin = margin;
  // No trained FEP head on the CLI path: every proven-inequivalent mutant
  // is a negative. Tests and the bench wire a real scorer through the
  // library API.
  const sat::MineReport rep =
      sat::mine_hard_negatives(golden, sat::FepScorer{}, cfg);
  std::printf("%s: %zu candidate(s) -> %zu inequivalent, %zu benign, "
              "%zu unknown; %zu negative(s) mined\n",
              golden.name().c_str(), rep.candidates,
              rep.proven_inequivalent, rep.proven_equivalent, rep.unknown,
              rep.negatives.size());
  for (const auto& neg : rep.negatives) {
    std::printf("  %-28s %s node=%s conflicts=%llu cex_frames=%d\n",
                neg.name.c_str(), data::to_string(neg.mutation.kind),
                neg.mutation.node.c_str(),
                static_cast<unsigned long long>(neg.conflicts),
                neg.cex_frames);
  }
  if (!out_dir.empty()) {
    const std::size_t files = sat::export_mined(rep, out_dir);
    std::printf("wrote %zu file(s) to %s\n", files, out_dir.c_str());
  }
  return rep.negatives.empty() ? 1 : 0;
}

void ensure_out_dir(const std::string& dir) {
  std::string partial;
  for (std::size_t i = 0; i <= dir.size(); ++i) {
    if (i == dir.size() || dir[i] == '/') {
      if (!partial.empty() && partial != "/") {
        ::mkdir(partial.c_str(), 0755);
      }
    }
    if (i < dir.size()) partial.push_back(dir[i]);
  }
  struct stat st {};
  MOSS_CHECK(::stat(dir.c_str(), &st) == 0 && S_ISDIR(st.st_mode),
             "cannot create output directory " + dir);
}

int cmd_corrupt(const std::string& arg, std::size_t count,
                std::uint64_t seed, const std::vector<std::string>& passes,
                const std::string& out_dir) {
  const rtl::Module golden = load_design(arg);
  std::vector<data::CorruptionKind> kinds;
  for (const std::string& name : passes) {
    data::CorruptionKind kind;
    if (!data::corruption_kind_from_string(name, &kind)) {
      std::fprintf(stderr, "unknown corruption pass '%s' (known:", name.c_str());
      for (const data::CorruptionKind k : data::all_corruption_kinds()) {
        std::fprintf(stderr, " %s", data::to_string(k));
      }
      std::fprintf(stderr, ")\n");
      return 2;
    }
    kinds.push_back(kind);
  }
  if (!out_dir.empty()) ensure_out_dir(out_dir);
  std::ofstream jsonl;
  if (!out_dir.empty()) {
    jsonl.open(out_dir + "/corrupt.jsonl", std::ios::out | std::ios::trunc);
    MOSS_CHECK(jsonl.is_open(), "cannot write " + out_dir + "/corrupt.jsonl");
  }
  std::size_t emitted = 0;
  for (std::size_t i = 0; i < count; ++i) {
    data::CorruptConfig ccfg;
    ccfg.seed = seed + i;
    ccfg.severity = 1 + static_cast<int>(i % 3);
    ccfg.passes = kinds;
    const data::CorruptedRtl corr = data::corrupt_module(golden, ccfg);
    if (corr.applied.empty()) continue;  // no eligible site under these passes
    rtl::Module variant = corr.module;
    variant.name = golden.name + "__corr" + std::to_string(i);
    const std::string provenance = data::provenance_json(
        variant.name, ccfg.seed, ccfg.severity, corr.applied);
    std::printf("%s: %zu corruption(s) [%s]\n", variant.name.c_str(),
                corr.applied.size(), data::to_string(corr.applied[0].kind));
    if (!out_dir.empty()) {
      const std::string path = out_dir + "/" + variant.name + ".v";
      std::ofstream vf(path, std::ios::out | std::ios::trunc);
      MOSS_CHECK(vf.is_open(), "cannot write " + path);
      vf << rtl::to_verilog(variant);
      jsonl << provenance << "\n";
    }
    ++emitted;
  }
  if (!out_dir.empty()) {
    std::printf("wrote %zu variant(s) + corrupt.jsonl to %s\n", emitted,
                out_dir.c_str());
  }
  return emitted > 0 ? 0 : 1;
}

int cmd_reset(const std::string& arg) {
  const netlist::Netlist nl = synth_design(arg);
  const sim::ResetCoverage cov = sim::analyze_reset(nl);
  std::printf("%s: %zu/%zu flops initialized by reset (%.1f%%)\n",
              nl.name().c_str(), cov.initialized, cov.total_flops,
              100 * cov.coverage);
  for (const auto& name : cov.uninitialized) {
    std::printf("  X after reset: %s\n", name.c_str());
  }
  return cov.uninitialized.empty() ? 0 : 1;
}

int cmd_vcd(const std::string& arg, const char* out_path,
            std::uint64_t cycles) {
  const netlist::Netlist nl = synth_design(arg);
  std::ofstream out(out_path);
  MOSS_CHECK(out.is_open(), std::string("cannot write ") + out_path);
  sim::VcdWriter vcd(out, nl);
  vcd.add_ports();
  sim::Simulator s(nl);
  Rng rng(4);
  std::vector<std::uint8_t> pis(nl.inputs().size());
  for (std::uint64_t c = 0; c < cycles; ++c) {
    for (std::size_t i = 0; i < pis.size(); ++i) {
      const std::string& n = nl.node(nl.inputs()[i]).name;
      pis[i] = (n == "rst" && c < 2) ? 1 : (rng.bernoulli(0.5) ? 1 : 0);
    }
    s.step(pis);
    vcd.sample(s);
  }
  vcd.finish();
  std::printf("wrote %s (%llu cycles, %zu signals)\n", out_path,
              static_cast<unsigned long long>(cycles),
              nl.inputs().size() + nl.outputs().size());
  return 0;
}

struct TrainOptions {
  std::size_t threads = 1;
  std::string checkpoint_base;  ///< enables crash-safe epoch snapshots
  int checkpoint_every = 1;
  bool resume = false;
  std::string save_path;  ///< final parameter checkpoint
};

int cmd_ckpt(const std::string& path) {
  const tensor::CheckpointFile ckpt = tensor::read_checkpoint_file(path);
  std::printf("%s: format v%u, %zu sections, all checksums OK\n",
              path.c_str(), tensor::kCheckpointVersion,
              ckpt.sections().size());
  for (const auto& [name, payload] : ckpt.sections()) {
    std::printf("  %-28s %zu bytes\n", name.c_str(), payload.size());
  }
  return 0;
}

int cmd_train(const std::vector<std::string>& designs,
              const TrainOptions& opt) {
  const std::size_t threads = opt.threads;
  core::WorkflowConfig cfg;
  cfg.model.hidden = 16;
  cfg.model.rounds = 1;
  cfg.dataset.sim_cycles = 400;
  cfg.dataset.threads = threads;
  cfg.encoder = {2048, 16, 9};
  cfg.fine_tune.epochs = 1;
  cfg.fine_tune.max_pairs_per_epoch = 20000;
  cfg.pretrain.epochs = 6;
  cfg.pretrain.threads = threads;
  cfg.pretrain.grad_accum = threads;
  cfg.align.epochs = 6;
  cfg.align.threads = threads;
  cfg.threads = threads;
  if (!opt.checkpoint_base.empty()) {
    cfg.enable_checkpointing(opt.checkpoint_base, opt.checkpoint_every,
                             opt.resume);
  }

  core::MossWorkflow wf(cfg);
  std::vector<data::DesignSpec> specs;
  for (const std::string& d : designs) {
    if (d.size() > 2 && d.substr(d.size() - 2) == ".v") {
      wf.add_module(load_design(d));  // parsed RTL goes through label_module
    } else {
      const auto colon = d.find(':');
      data::DesignSpec spec;
      spec.family = colon == std::string::npos ? d : d.substr(0, colon);
      spec.size_hint =
          colon == std::string::npos ? 2 : std::atoi(d.c_str() + colon + 1);
      spec.seed = 1;
      spec.name = spec.family + "_cli" + std::to_string(specs.size());
      specs.push_back(spec);
    }
  }
  wf.add_designs(specs);  // labeled `threads` designs at a time
  std::printf("training on %zu circuits with %zu thread(s)\n",
              wf.num_circuits(), threads);
  if (opt.resume && !opt.checkpoint_base.empty()) {
    std::printf("resuming from %s.{pretrain,align}.ckpt if present\n",
                opt.checkpoint_base.c_str());
  }

  wf.fine_tune_encoder();
  const core::PretrainReport pre = wf.pretrain_model();
  std::printf("pretrain: loss %.4f -> %.4f over %zu epochs",
              pre.total.front(), pre.total.back(), pre.total.size());
  if (pre.bad_steps > 0) {
    std::printf("  (%zu non-finite steps skipped)", pre.bad_steps);
  }
  std::printf("\n");
  if (wf.num_circuits() >= 2) {
    const core::AlignReport al = wf.align_model();
    if (!al.total.empty()) {
      std::printf("align:    loss %.4f -> %.4f over %zu epochs",
                  al.total.front(), al.total.back(), al.total.size());
      if (al.bad_steps > 0) {
        std::printf("  (%zu non-finite steps skipped)", al.bad_steps);
      }
      std::printf("\n");
    }
  }
  if (!opt.save_path.empty()) {
    wf.save_checkpoint(opt.save_path);
    std::printf("saved model parameters to %s\n", opt.save_path.c_str());
  }
  for (std::size_t i = 0; i < wf.num_circuits(); ++i) {
    const core::TaskAccuracy acc = wf.evaluate(i);
    std::printf("  %-24s trp %.3f  atp %.3f  pp %.3f\n",
                wf.circuit(i).netlist.name().c_str(), acc.trp, acc.atp,
                acc.pp);
  }
  return 0;
}

struct ServeOptions {
  std::size_t cache_mb = 64;
  std::size_t max_batch = 8;
  int max_delay_ms = 2;
  std::size_t threads = 0;      ///< 0 = hardware concurrency
  int max_retries = 2;          ///< retries after the first attempt
  double shed_threshold = 0.75; ///< queue fraction; >=1 disables shedding
  bool allow_stale = false;     ///< serve EMBED/RANK from stale cache
};

/// Serve a trained checkpoint over the stdin/stdout line protocol.
///
/// The design list must match the one passed to `train --save`: the model's
/// parameter shapes depend on the fine-tuned encoder geometry, which is
/// reproduced here by fine-tuning on the same corpus with the same seed.
int cmd_serve(const std::string& ckpt_path,
              const std::vector<std::string>& designs,
              const ServeOptions& opt) {
  // Exact cmd_train config (shapes must reproduce).
  core::WorkflowConfig cfg;
  cfg.model.hidden = 16;
  cfg.model.rounds = 1;
  cfg.dataset.sim_cycles = 400;
  cfg.encoder = {2048, 16, 9};
  cfg.fine_tune.epochs = 1;
  cfg.fine_tune.max_pairs_per_epoch = 20000;
  cfg.pretrain.epochs = 6;
  cfg.align.epochs = 6;

  // Label circuits in cmd_train's workflow order: .v modules in CLI order
  // first, then generated specs numbered by generated-only index.
  const auto& lib = cell::standard_library();
  std::vector<std::shared_ptr<const data::LabeledCircuit>> vmods, gens;
  std::vector<std::string> vtokens, gtokens;
  for (const std::string& d : designs) {
    if (d.size() > 2 && d.substr(d.size() - 2) == ".v") {
      vmods.push_back(std::make_shared<data::LabeledCircuit>(
          data::label_module(load_design(d), lib, cfg.dataset)));
      vtokens.push_back(d);
    } else {
      const auto colon = d.find(':');
      data::DesignSpec spec;
      spec.family = colon == std::string::npos ? d : d.substr(0, colon);
      spec.size_hint =
          colon == std::string::npos ? 2 : std::atoi(d.c_str() + colon + 1);
      spec.seed = 1;
      spec.name = spec.family + "_cli" + std::to_string(gens.size());
      gens.push_back(std::make_shared<data::LabeledCircuit>(
          data::label_circuit(spec, lib, cfg.dataset)));
      gtokens.push_back(d);
    }
  }
  std::vector<std::shared_ptr<const data::LabeledCircuit>> circuits = vmods;
  circuits.insert(circuits.end(), gens.begin(), gens.end());
  std::vector<std::string> tokens = vtokens;
  tokens.insert(tokens.end(), gtokens.begin(), gtokens.end());

  std::vector<std::string> corpus;
  for (const auto& lc : circuits) corpus.push_back(lc->module_text);
  serve::ModelRegistry registry;
  const auto session = serve::MossSession::load(cfg, corpus, ckpt_path);
  registry.install("default", session);
  std::fprintf(stderr, "serve: loaded %s (%zu pool design(s))\n",
               ckpt_path.c_str(), circuits.size());

  serve::EmbeddingCache cache(opt.cache_mb << 20);
  serve::EngineConfig ecfg;
  ecfg.max_batch = opt.max_batch;
  ecfg.max_delay_ms = opt.max_delay_ms;
  ecfg.threads = opt.threads;
  ecfg.admission.enabled = opt.shed_threshold < 1.0;
  ecfg.admission.shed_queue_fraction = opt.shed_threshold;
  ecfg.allow_stale = opt.allow_stale;
  serve::InferenceEngine engine(registry, &cache, ecfg);

  std::vector<std::shared_ptr<const core::CircuitBatch>> pool;
  for (const auto& lc : circuits) {
    pool.push_back(std::make_shared<core::CircuitBatch>(session->build(*lc)));
  }
  engine.register_pool("pool", pool);

  serve::ProtocolConfig pcfg;
  pcfg.retry.max_attempts = 1 + opt.max_retries;
  auto boot = std::make_shared<
      std::unordered_map<std::string,
                         std::shared_ptr<const data::LabeledCircuit>>>();
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    (*boot)[tokens[i]] = circuits[i];
  }
  const data::DatasetConfig dcfg = cfg.dataset;
  pcfg.load_design = [boot, dcfg, &lib](const std::string& token)
      -> std::shared_ptr<const data::LabeledCircuit> {
    const auto it = boot->find(token);
    if (it != boot->end()) return it->second;
    return std::make_shared<data::LabeledCircuit>(
        data::label_module(load_design(token), lib, dcfg));
  };

  serve::ProtocolHandler handler(engine, pcfg);
  const std::size_t handled = handler.run(std::cin, std::cout);
  std::fprintf(stderr, "serve: handled %zu request(s)\n", handled);
  std::fputs(engine.metrics_text().c_str(), stderr);
  return 0;
}

// ---------------------------------------------------------------------------
// plan compile / inspect

int cmd_plan_compile(const std::string& arg, const std::string& out,
                     std::size_t threads) {
  const auto& lib = cell::standard_library();
  data::DatasetConfig dcfg;
  dcfg.sim_cycles = 2000;
  dcfg.threads = threads;
  const data::LabeledCircuit lc = data::label_module(load_design(arg), lib,
                                                     dcfg);
  const lm::TextEncoder enc({2048, 16, 9});
  const core::CircuitBatch batch = core::build_batch(lc, enc, {});
  const plan::ExecutionPlan p = plan::compile(lc.netlist, batch);
  plan::save(p, out);
  const std::string blob = plan::serialize(p);
  std::printf("%s: %zu nodes (%llu cells, %zu flops), %u clusters, "
              "%u unique cones\n",
              p.name.c_str(), p.num_nodes(),
              static_cast<unsigned long long>(p.num_cells), p.flops.size(),
              p.num_clusters, p.unique_cones);
  std::printf("wrote %s (%zu bytes, batch hash %016llx)\n", out.c_str(),
              blob.size(), static_cast<unsigned long long>(p.batch_hash));
  return 0;
}

int cmd_plan_inspect(const std::string& path) {
  const plan::ExecutionPlan p = plan::load(path);
  std::printf("== %s ==\n", p.name.c_str());
  std::printf("nodes:    %zu (%llu cells, %zu flops, %zu PIs, %zu POs)\n",
              p.num_nodes(), static_cast<unsigned long long>(p.num_cells),
              p.flops.size(), p.inputs.size(), p.outputs.size());
  std::printf("levels:   %zu | clusters: %u | feature dim: %u | "
              "prompt dim: %u\n",
              p.level_offset.empty() ? 0 : p.level_offset.size() - 1,
              p.num_clusters, p.feature_dim, p.prompt_dim);
  const std::size_t fwd_steps =
      p.fwd_step_offset.empty() ? 0 : p.fwd_step_offset.size() - 1;
  const std::size_t turn_steps =
      p.turn_step_offset.empty() ? 0 : p.turn_step_offset.size() - 1;
  std::printf("schedule: %zu forward + %zu turnaround steps, %zu groups, "
              "%zu edges\n",
              fwd_steps, turn_steps, p.group_cluster.size(),
              p.edge_src.size());
  std::printf("cones:    %u unique over %zu nodes (%.1f%% shared)\n",
              p.unique_cones, p.num_nodes(),
              p.num_nodes() == 0
                  ? 0.0
                  : 100.0 * (1.0 - static_cast<double>(p.unique_cones) /
                                       static_cast<double>(p.num_nodes())));
  std::printf("batch hash %016llx | power %.1f uW | blob %zu bytes\n",
              static_cast<unsigned long long>(p.batch_hash), p.power_uw,
              plan::serialize(p).size());
  return 0;
}

void usage() {
  std::fputs(
      "usage: moss_cli <command> ...\n"
      "  lint   <design>\n"
      "  synth  <design> [out.v]\n"
      "  report <design>\n"
      "  fault  <design> [cycles]\n"
      "  formal <design_a> <design_b>\n"
      "  sat    verify <design_a> <design_b> [--frames N] [--conflicts N]\n"
      "  sat    mine <design> [--count N] [--seed S] [--out DIR]\n"
      "         [--margin F]\n"
      "  corrupt <design> [--count N] [--seed S] [--passes a,b,...]\n"
      "         [--out DIR]\n"
      "  reset  <design>\n"
      "  vcd    <design> <out.vcd> [cycles]\n"
      "  train  <design>... [--threads N] [--checkpoint BASE]\n"
      "         [--checkpoint-every N] [--resume] [--save CKPT]\n"
      "  ckpt   <file.ckpt>\n"
      "  serve  <file.ckpt> <design>... [--cache-mb N] [--max-batch N]\n"
      "         [--max-delay-ms N] [--threads N] [--max-retries N]\n"
      "         [--shed-threshold F] [--allow-stale]\n"
      "  plan   compile <design> --out <file.mossplan> [--threads N]\n"
      "  plan   inspect <file.mossplan>\n"
      "<design> = verilog file (*.v) or family:size (e.g. alu:2)\n"
      "exit codes: 0 ok, 1 analysis failed, 2 usage/error, 3 bad "
      "checkpoint,\n"
      "            4 sat verify inconclusive (depth/conflict bound)\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "lint") return cmd_lint(argv[2]);
    if (cmd == "synth") return cmd_synth(argv[2], argc > 3 ? argv[3] : nullptr);
    if (cmd == "report") return cmd_report(argv[2]);
    if (cmd == "fault") {
      return cmd_fault(argv[2], argc > 3 ? std::strtoull(argv[3], nullptr, 10)
                                         : 256);
    }
    if (cmd == "reset") return cmd_reset(argv[2]);
    if (cmd == "formal") {
      if (argc < 4) {
        usage();
        return 2;
      }
      return cmd_formal(argv[2], argv[3]);
    }
    if (cmd == "sat") {
      const std::string sub = argv[2];
      if (sub == "verify") {
        std::vector<std::string> designs;
        int frames = 16;
        std::uint64_t conflicts = 200000;
        for (int i = 3; i < argc; ++i) {
          const std::string a = argv[i];
          if (a == "--frames" && i + 1 < argc) {
            frames = std::max(1, std::atoi(argv[++i]));
          } else if (a == "--conflicts" && i + 1 < argc) {
            conflicts = std::strtoull(argv[++i], nullptr, 10);
          } else if (a.rfind("--", 0) == 0) {
            std::fprintf(stderr, "unknown sat verify option %s\n", a.c_str());
            usage();
            return 2;
          } else {
            designs.push_back(a);
          }
        }
        if (designs.size() != 2) {
          usage();
          return 2;
        }
        return cmd_sat_verify(designs[0], designs[1], frames, conflicts);
      }
      if (sub == "mine") {
        std::string design, out_dir;
        std::size_t count = 24;
        std::uint64_t seed = 1;
        float margin = 0.0f;
        for (int i = 3; i < argc; ++i) {
          const std::string a = argv[i];
          if (a == "--count" && i + 1 < argc) {
            count = static_cast<std::size_t>(
                std::max(1, std::atoi(argv[++i])));
          } else if (a == "--seed" && i + 1 < argc) {
            seed = std::strtoull(argv[++i], nullptr, 10);
          } else if (a == "--out" && i + 1 < argc) {
            out_dir = argv[++i];
          } else if (a == "--margin" && i + 1 < argc) {
            margin = static_cast<float>(std::atof(argv[++i]));
          } else if (a.rfind("--", 0) == 0) {
            std::fprintf(stderr, "unknown sat mine option %s\n", a.c_str());
            usage();
            return 2;
          } else {
            design = a;
          }
        }
        if (design.empty()) {
          usage();
          return 2;
        }
        return cmd_sat_mine(design, count, seed, out_dir, margin);
      }
      usage();
      return 2;
    }
    if (cmd == "corrupt") {
      std::string design, out_dir;
      std::vector<std::string> passes;
      std::size_t count = 4;
      std::uint64_t seed = 1;
      for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--count" && i + 1 < argc) {
          count = static_cast<std::size_t>(std::max(1, std::atoi(argv[++i])));
        } else if (a == "--seed" && i + 1 < argc) {
          seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--out" && i + 1 < argc) {
          out_dir = argv[++i];
        } else if (a == "--passes" && i + 1 < argc) {
          std::stringstream ss(argv[++i]);
          std::string tok;
          while (std::getline(ss, tok, ',')) {
            if (!tok.empty()) passes.push_back(tok);
          }
        } else if (a.rfind("--", 0) == 0) {
          std::fprintf(stderr, "unknown corrupt option %s\n", a.c_str());
          usage();
          return 2;
        } else {
          design = a;
        }
      }
      if (design.empty()) {
        usage();
        return 2;
      }
      return cmd_corrupt(design, count, seed, passes, out_dir);
    }
    if (cmd == "vcd") {
      if (argc < 4) {
        usage();
        return 2;
      }
      return cmd_vcd(argv[2], argv[3],
                     argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 64);
    }
    if (cmd == "ckpt") return cmd_ckpt(argv[2]);
    if (cmd == "plan") {
      const std::string sub = argv[2];
      if (sub == "inspect") {
        std::string path;
        for (int i = 3; i < argc; ++i) {
          const std::string a = argv[i];
          if (a.rfind("--", 0) == 0) {
            std::fprintf(stderr, "unknown plan option %s\n", a.c_str());
            usage();
            return 2;
          } else {
            path = a;
          }
        }
        if (path.empty()) {
          usage();
          return 2;
        }
        return cmd_plan_inspect(path);
      }
      if (sub == "compile") {
        std::string design, out;
        std::size_t threads = 1;
        for (int i = 3; i < argc; ++i) {
          const std::string a = argv[i];
          if (a == "--out" && i + 1 < argc) {
            out = argv[++i];
          } else if (a == "--threads" && i + 1 < argc) {
            threads = static_cast<std::size_t>(
                std::max(1, std::atoi(argv[++i])));
          } else if (a.rfind("--", 0) == 0) {
            std::fprintf(stderr, "unknown plan option %s\n", a.c_str());
            usage();
            return 2;
          } else {
            design = a;
          }
        }
        if (design.empty() || out.empty()) {
          usage();
          return 2;
        }
        return cmd_plan_compile(design, out, threads);
      }
      usage();
      return 2;
    }
    if (cmd == "train") {
      std::vector<std::string> designs;
      TrainOptions opt;
      for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--threads" && i + 1 < argc) {
          opt.threads = static_cast<std::size_t>(
              std::max(1, std::atoi(argv[++i])));
        } else if (a.rfind("--threads=", 0) == 0) {
          opt.threads = static_cast<std::size_t>(
              std::max(1, std::atoi(a.c_str() + 10)));
        } else if (a == "--checkpoint" && i + 1 < argc) {
          opt.checkpoint_base = argv[++i];
        } else if (a == "--checkpoint-every" && i + 1 < argc) {
          opt.checkpoint_every = std::max(1, std::atoi(argv[++i]));
        } else if (a == "--resume") {
          opt.resume = true;
        } else if (a == "--save" && i + 1 < argc) {
          opt.save_path = argv[++i];
        } else if (a.rfind("--", 0) == 0) {
          std::fprintf(stderr, "unknown train option %s\n", a.c_str());
          usage();
          return 2;
        } else {
          designs.push_back(a);
        }
      }
      if (designs.empty()) {
        usage();
        return 2;
      }
      return cmd_train(designs, opt);
    }
    if (cmd == "serve") {
      const std::string ckpt = argv[2];
      std::vector<std::string> designs;
      ServeOptions opt;
      for (int i = 3; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--cache-mb" && i + 1 < argc) {
          opt.cache_mb = static_cast<std::size_t>(
              std::max(1, std::atoi(argv[++i])));
        } else if (a == "--max-batch" && i + 1 < argc) {
          opt.max_batch = static_cast<std::size_t>(
              std::max(1, std::atoi(argv[++i])));
        } else if (a == "--max-delay-ms" && i + 1 < argc) {
          opt.max_delay_ms = std::max(0, std::atoi(argv[++i]));
        } else if (a == "--threads" && i + 1 < argc) {
          opt.threads = static_cast<std::size_t>(
              std::max(0, std::atoi(argv[++i])));
        } else if (a == "--max-retries" && i + 1 < argc) {
          opt.max_retries = std::max(0, std::atoi(argv[++i]));
        } else if (a == "--shed-threshold" && i + 1 < argc) {
          opt.shed_threshold = std::atof(argv[++i]);
        } else if (a == "--allow-stale") {
          opt.allow_stale = true;
        } else if (a.rfind("--", 0) == 0) {
          std::fprintf(stderr, "unknown serve option %s\n", a.c_str());
          usage();
          return 2;
        } else {
          designs.push_back(a);
        }
      }
      if (designs.empty()) {
        usage();
        return 2;
      }
      return cmd_serve(ckpt, designs, opt);
    }
  } catch (const ContextError& e) {
    // Structured checkpoint/persistence failures: say exactly which file
    // and section failed, and exit with a code scripts can dispatch on.
    std::fprintf(stderr, "checkpoint error: %s\n", e.what());
    return 3;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  usage();
  return 2;
}
