// train: the paper's offline pipeline. Label a seeded design set
// (synth -> random-activity sim -> STA -> power -> oracle-proven FEP label),
// fine-tune the encoder, build the model and its batches, then run a fixed
// number of pretrain and align epochs of the Table I configuration
// (MossConfig defaults: hidden 32, two rounds, alignment and adaptive
// aggregation on). grad_accum is fixed at 4 so the loss curve does not
// depend on the host; threads only change wall time.

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>

#include "clustering/clustering.hpp"
#include "core/workflow.hpp"
#include "core_util/hash.hpp"
#include "core_util/rng.hpp"
#include "core_util/thread_pool.hpp"
#include "data/dataset.hpp"
#include "power/power.hpp"
#include "sim/simulator.hpp"
#include "sta/sta.hpp"
#include "synth/synthesize.hpp"
#include "tensor/kernels.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = moss::core;
namespace data = moss::data;
using moss::Rng;

constexpr std::size_t kTrainDesigns = 56;  ///< 4 per family, 2 per size
constexpr int kPretrainEpochs = 4;
constexpr int kAlignEpochs = 4;
constexpr std::size_t kGradAccum = 4;

core::WorkflowConfig train_config(std::size_t threads) {
  core::WorkflowConfig cfg;  // MossConfig, encoder and fine-tune defaults
  cfg.dataset.sim_cycles = 1000;
  cfg.dataset.threads = threads;
  cfg.pretrain.epochs = kPretrainEpochs;
  cfg.pretrain.threads = threads;
  cfg.pretrain.grad_accum = kGradAccum;
  cfg.align.epochs = kAlignEpochs;
  cfg.align.threads = threads;
  cfg.align.grad_accum = kGradAccum;
  cfg.threads = threads;
  return cfg;
}

/// corpus_specs' family rotation and seeds, with size hints fixed to
/// 1 and 2 per family so every seed labels the same mix of sizes.
std::vector<data::DesignSpec> train_specs(const Options& opt) {
  const std::size_t n = opt.tiny ? 4 : kTrainDesigns;
  std::vector<data::DesignSpec> specs =
      data::corpus_specs(n, opt.seed ^ 0x7A1ull, 1, 2);
  const std::size_t fams = data::families().size();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].size_hint = 1 + static_cast<int>((i / fams) % 2);
    specs[i].name = "t" + std::to_string(i) + "_" + specs[i].family;
  }
  return specs;
}

/// Fine-tuned encoder, model and batches: the train workload's set-up.
struct TrainState {
  std::unique_ptr<moss::lm::TextEncoder> encoder;
  std::unique_ptr<core::MossModel> model;
  std::vector<core::CircuitBatch> batches;
};

std::unique_ptr<core::MossModel> make_model(const core::WorkflowConfig& cfg,
                                            const moss::lm::TextEncoder& enc) {
  return std::make_unique<core::MossModel>(
      cfg.model, moss::cell::standard_library(), enc);
}

TrainState setup_train(const core::WorkflowConfig& cfg,
                       const std::vector<data::LabeledCircuit>& lcs) {
  TrainState st;
  st.encoder = std::make_unique<moss::lm::TextEncoder>(cfg.encoder);
  std::vector<std::string> corpus;
  for (const auto& lc : lcs) corpus.push_back(lc.module_text);
  // Seeded exactly like MossWorkflow::fine_tune_encoder.
  Rng rng(cfg.seed ^ 0xF17E);
  moss::lm::fine_tune(*st.encoder, corpus, cfg.fine_tune, rng);
  st.model = make_model(cfg, *st.encoder);
  moss::ThreadPool tp(cfg.threads);
  st.batches = tp.parallel_map(lcs.size(), [&](std::size_t i) {
    return core::build_batch(lcs[i], *st.encoder, cfg.model.features);
  });
  return st;
}

struct TrainPass {
  core::PretrainReport pretrain;
  core::AlignReport align;
  double seconds = 0.0;
  std::uint64_t circuit_epochs = 0;
};

TrainPass train_once(core::MossModel& model,
                     const std::vector<core::CircuitBatch>& batches,
                     const core::WorkflowConfig& cfg) {
  TrainPass pass;
  std::vector<core::CircuitBatch> data = batches;
  const auto t0 = Clock::now();
  pass.pretrain = core::pretrain(model, data, cfg.pretrain);
  Rng rng(cfg.seed ^ 0xA117);  // MossWorkflow::align_model's stream
  pass.align = core::align(model, data, cfg.align, rng);
  pass.seconds = seconds_between(t0, Clock::now());
  pass.circuit_epochs = static_cast<std::uint64_t>(data.size()) *
                        static_cast<std::uint64_t>(cfg.pretrain.epochs);
  for (const std::size_t n : pass.align.circuits_seen) pass.circuit_epochs += n;
  return pass;
}

std::uint64_t loss_digest(const TrainPass& p) {
  moss::HashBuilder h;
  for (const auto* curve : {&p.pretrain.total, &p.pretrain.prob,
                            &p.pretrain.toggle, &p.pretrain.arrival,
                            &p.align.total, &p.align.rnc, &p.align.rnm,
                            &p.align.rrndm}) {
    h.mix(static_cast<std::uint64_t>(curve->size()));
    if (!curve->empty()) {
      h.mix_bytes(curve->data(), curve->size() * sizeof(double));
    }
  }
  return h.digest();
}

bool all_finite(const TrainPass& p) {
  for (const auto* curve : {&p.pretrain.total, &p.align.total}) {
    for (const double v : *curve) {
      if (!std::isfinite(v)) return false;
    }
  }
  return true;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"%016llx\"",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

Result run_train(const Options& opt) {
  Result out;
  core::WorkflowConfig cfg = train_config(opt.threads);
  if (opt.tiny) {
    cfg.pretrain.epochs = 1;
    cfg.align.epochs = 1;
  }
  const auto& lib = moss::cell::standard_library();
  const std::vector<data::DesignSpec> specs = train_specs(opt);

  // Labeling: data::build_dataset one design per call, min(nproc, 4) calls
  // at a time (the same fan-out build_dataset uses internally), so each
  // design's labeling latency is observable. Repeated over the set until
  // its share of the run is used.
  data::DatasetConfig one = cfg.dataset;
  one.threads = 1;
  moss::ThreadPool tp(opt.threads);
  std::vector<double> label_ms;
  std::vector<double> label_rate;  ///< designs/s of each pass over the set
  std::vector<data::LabeledCircuit> lcs;
  std::size_t labeled = 0;
  std::uint64_t label_failures = 0;
  const double label_budget_s = opt.seconds * 0.3;
  const auto t_label = Clock::now();
  do {
    const auto t_pass = Clock::now();
    std::vector<double> ms(specs.size(), 0.0);
    std::vector<std::optional<data::LabeledCircuit>> got(specs.size());
    tp.parallel_for(0, specs.size(), [&](std::size_t i) {
      const auto t0 = Clock::now();
      try {
        got[i] = std::move(data::build_dataset({specs[i]}, lib, one).at(0));
      } catch (const std::exception&) {
        // counted below as a design that failed to label
      }
      ms[i] = ms_between(t0, Clock::now());
    });
    lcs.clear();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (got[i]) {
        lcs.push_back(std::move(*got[i]));
        label_ms.push_back(ms[i]);
        ++labeled;
      } else {
        label_ms.push_back(std::numeric_limits<double>::infinity());
        ++label_failures;
      }
    }
    label_rate.push_back(static_cast<double>(lcs.size()) /
                         seconds_between(t_pass, Clock::now()));
  } while (seconds_between(t_label, Clock::now()) < label_budget_s);
  std::size_t unproven = 0;
  for (const auto& lc : lcs) {
    if (lc.fep_label_source != data::FepLabelSource::kOracleProven) ++unproven;
  }
  if (unproven != 0) {
    out.mismatch(std::to_string(unproven) +
                 " labeled designs lack an oracle-proven FEP label");
  }

  // Set-up, repeated for a median: fine-tune, model (adaptive clustering
  // of cell types inside), batches.
  std::vector<double> setup_s;
  std::optional<TrainState> st;
  for (int rep = 0; rep < (opt.tiny ? 1 : 5); ++rep) {
    const auto t0 = Clock::now();
    st.emplace(setup_train(cfg, lcs));
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // Training, repeated from the same initial weights: the loss digest of
  // every pass must be identical.
  std::vector<TrainPass> passes;
  const double train_budget_s = opt.seconds * 0.7;
  double trained_s = 0.0;
  do {
    std::unique_ptr<core::MossModel> model =
        passes.empty() ? std::move(st->model) : make_model(cfg, *st->encoder);
    passes.push_back(train_once(*model, st->batches, cfg));
    trained_s += passes.back().seconds;
  } while (passes.size() < 2 || trained_s < train_budget_s);

  // Medians over passes, so a stall of the shared host during one pass
  // does not move the run's figure.
  std::uint64_t circuit_epochs = 0, bad_steps = 0;
  std::vector<double> pass_rate;
  for (const TrainPass& p : passes) {
    circuit_epochs += p.circuit_epochs;
    pass_rate.push_back(static_cast<double>(p.circuit_epochs) / p.seconds);
    bad_steps += p.pretrain.bad_steps + p.align.bad_steps;
    if (!all_finite(p)) out.mismatch("non-finite training loss");
    if (loss_digest(p) != loss_digest(passes.front())) {
      out.mismatch("loss digest differs between training passes");
    }
  }

  out.attempted = labeled + label_failures + circuit_epochs;
  out.failed = label_failures + bad_steps;
  out.metric("throughput", median(pass_rate), "1/s");
  std::string beyond_p99;
  out.metric("p50_ms", segment_quantile(label_ms, 0.50), "ms");
  out.metric("p99_ms", segment_quantile(label_ms, 0.99, &beyond_p99), "ms");
  out.metric("label_designs_per_s", median(label_rate), "designs/s");
  out.metric("setup_s", median(setup_s), "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");

  out.add_detail("labeling",
                 "{\"designs\":" + std::to_string(specs.size()) +
                     ",\"labeled\":" + std::to_string(labeled) +
                     ",\"failed\":" + std::to_string(label_failures) +
                     ",\"samples\":" + std::to_string(label_ms.size()) +
                     ",\"beyond_p99_per_segment\":\"" + beyond_p99 + "\"}");
  out.add_detail("training",
                 "{\"passes\":" + std::to_string(passes.size()) +
                     ",\"circuit_epochs\":" + std::to_string(circuit_epochs) +
                     ",\"bad_steps\":" + std::to_string(bad_steps) +
                     ",\"pretrain_final\":" +
                     json_number(passes.front().pretrain.total.back()) +
                     ",\"align_final\":" +
                     json_number(passes.front().align.total.empty()
                                     ? 0.0
                                     : passes.front().align.total.back()) +
                     ",\"loss_digest\":" + hex(loss_digest(passes.front())) +
                     "}");
  out.add_detail("setup_reps", std::to_string(setup_s.size()));
  return out;
}

// ---------------------------------------------------------------------------
// Traced run, training half
// ---------------------------------------------------------------------------

namespace {

/// GFLOP/s of `fn` at an (M, K, N) GEMM: operations counted as 2·M·K·N
/// from the tensor sizes, timed as the median span over `reps` calls.
template <typename Fn>
double gflops(Tracer& tr, const std::string& span, std::size_t M,
              std::size_t K, std::size_t N, int reps, Fn&& fn) {
  for (int r = 0; r < reps; ++r) {
    const Tracer::Scope s(tr, span);
    fn();
  }
  const double ms = tr.median_self_ms(span);
  return ms > 0.0 ? 2.0 * static_cast<double>(M * K * N) / (ms * 1e6) : 0.0;
}

std::vector<float> seeded(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

}  // namespace

void trace_train(const Options& opt, Tracer& tr, SatTally& sat, Result& out) {
  core::WorkflowConfig cfg = train_config(opt.threads);
  const auto& lib = moss::cell::standard_library();
  const std::vector<data::DesignSpec> specs = train_specs(opt);

  // The labeling flow, one public call per stage, on every design.
  const data::DatasetConfig& dc = cfg.dataset;
  moss::sat::OracleConfig ocfg;
  ocfg.seed = dc.seed;
  ocfg.conflict_budget = dc.oracle_conflict_budget;
  ocfg.max_frames = dc.oracle_max_frames;
  const moss::sat::EquivOracle oracle(ocfg);
  std::uint64_t id = 1u << 20;
  for (const data::DesignSpec& spec : specs) {
    const Tracer::Scope root(tr, "data.label", id++);
    std::optional<moss::rtl::Module> m;
    {
      const Tracer::Scope s(tr, "data.generate");
      m.emplace(data::generate(spec));
    }
    std::optional<moss::netlist::Netlist> nl;
    {
      const Tracer::Scope s(tr, "synth.synthesize");
      nl.emplace(moss::synth::synthesize(*m, lib));
    }
    moss::sim::ActivityReport act;
    {
      Rng rng(dc.seed ^ moss::fnv1a64(nl->name()));
      const Tracer::Scope s(tr, "sim.activity");
      act = moss::sim::random_activity(*nl, dc.sim_cycles, rng,
                                       dc.input_one_prob);
    }
    {
      const Tracer::Scope s(tr, "sta.analysis");
      const moss::sta::TimingAnalysis ta(*nl);
      (void)ta.all_flop_arrivals();
    }
    {
      const Tracer::Scope s(tr, "power.analyze");
      (void)moss::power::analyze_power(*nl, act.toggle);
    }
    moss::sat::OracleResult res;
    {
      const Tracer::Scope s(tr, "sat.check");
      res = oracle.check(*m, *nl);
    }
    sat.add(res);
  }
  for (const char* name : {"data.generate", "synth.synthesize", "sim.activity",
                           "sta.analysis", "power.analyze"}) {
    out.metric(std::string(name) + "_ms", tr.median_self_ms(name), "ms");
  }

  // Set-up layers.
  data::DatasetConfig labeling = dc;
  labeling.threads = opt.threads;
  const std::vector<data::LabeledCircuit> lcs =
      data::build_dataset(specs, lib, labeling);
  std::vector<std::string> corpus;
  for (const auto& lc : lcs) corpus.push_back(lc.module_text);
  moss::lm::TextEncoder enc(cfg.encoder);
  {
    Rng rng(cfg.seed ^ 0xF17E);
    const Tracer::Scope s(tr, "lm.fine_tune");
    moss::lm::fine_tune(enc, corpus, cfg.fine_tune, rng);
  }
  out.metric("lm.fine_tune_s", tr.median_self_ms("lm.fine_tune") * 1e-3, "s");
  for (int r = 0; r < 3; ++r) {
    const Tracer::Scope s(tr, "clustering.adaptive");
    (void)core::cluster_cell_types(lib, enc, cfg.model.features.max_clusters);
  }
  out.metric("clustering.adaptive_ms",
             tr.median_self_ms("clustering.adaptive"), "ms");

  std::vector<core::CircuitBatch> batches;
  for (const auto& lc : lcs) {
    batches.push_back(core::build_batch(lc, enc, cfg.model.features));
  }

  // One epoch of each phase on a fresh copy of the model.
  {
    auto model = make_model(cfg, enc);
    std::vector<core::CircuitBatch> d = batches;
    core::PretrainConfig pc = cfg.pretrain;
    pc.epochs = 1;
    const Tracer::Scope s(tr, "core.pretrain_epoch");
    (void)core::pretrain(*model, d, pc);
  }
  {
    auto model = make_model(cfg, enc);
    std::vector<core::CircuitBatch> d = batches;
    core::AlignConfig ac = cfg.align;
    ac.epochs = 1;
    Rng rng(cfg.seed ^ 0xA117);
    const Tracer::Scope s(tr, "core.align_epoch");
    (void)core::align(*model, d, ac, rng);
  }
  const double pretrain_ms = tr.median_self_ms("core.pretrain_epoch");
  out.metric("core.pretrain_epoch_ms", pretrain_ms, "ms");
  out.metric("core.align_epoch_ms", tr.median_self_ms("core.align_epoch"),
             "ms");

  // Forward share of a pretrain epoch: node_embeddings + predict_local over
  // the same batches, serially.
  auto model = make_model(cfg, enc);
  double forward_ms = 0.0;
  std::size_t rows = 0;
  for (const core::CircuitBatch& b : batches) {
    const auto t0 = Clock::now();
    moss::tensor::Tensor h;
    {
      const Tracer::Scope s(tr, "core.node_embeddings.train");
      h = model->node_embeddings(b);
    }
    {
      const Tracer::Scope s(tr, "core.predict_local.train");
      (void)model->predict_local(b, h);
    }
    forward_ms += ms_between(t0, Clock::now());
    rows += b.graph.num_nodes;
  }
  out.metric("core.node_embeddings_ms.train",
             tr.median_self_ms("core.node_embeddings.train"), "ms");
  out.metric("core.train_forward_share",
             pretrain_ms > 0.0 ? forward_ms / pretrain_ms : 0.0, "ratio");

  // GEMM throughput at the shapes the two models issue. Serving: the input
  // projection over a stacked group of rows (feature width -> 16) and a
  // per-level message/update step (16 -> 16). Training: the same at one
  // circuit's rows (feature width -> 32, 32 -> 32) plus both backward
  // chains at the step shape.
  const std::size_t train_rows = std::max<std::size_t>(
      64, batches.empty() ? 64 : rows / batches.size());
  const std::size_t train_feat =
      core::feature_dim(lib, enc, cfg.model.features);
  moss::lm::TextEncoder serve_enc({2048, 16, 9});
  const std::size_t serve_feat =
      core::feature_dim(lib, serve_enc, cfg.model.features);
  Rng rng(opt.seed ^ 0x6E11ull);
  const int reps = opt.tiny ? 3 : 40;
  const auto run_gemm = [&](const std::string& name, std::size_t M,
                            std::size_t K, std::size_t N) {
    const std::vector<float> A = seeded(M * K, rng), B = seeded(K * N, rng);
    std::vector<float> C(M * N, 0.0f);
    out.metric("tensor.gemm_gflops." + name,
               gflops(tr, "tensor.gemm." + name, M, K, N, reps, [&] {
                 moss::tensor::kernels::gemm(M, K, N, A.data(), B.data(),
                                             C.data());
               }),
               "GFLOP/s");
  };
  run_gemm("serve_input", 4096, serve_feat, 16);
  run_gemm("serve_step", 256, 16, 16);
  run_gemm("train_input", train_rows, train_feat, 32);
  run_gemm("train_step", train_rows, 32, 32);
  {
    const std::size_t M = train_rows, K = 32, N = 32;
    const std::vector<float> G = seeded(M * N, rng), B = seeded(K * N, rng),
                             A = seeded(M * K, rng);
    std::vector<float> dA(M * K, 0.0f), dB(K * N, 0.0f);
    out.metric("tensor.gemm_dA_gflops",
               gflops(tr, "tensor.gemm_dA", M, K, N, reps,
                      [&] {
                        moss::tensor::kernels::gemm_dA(M, K, N, G.data(),
                                                       B.data(), dA.data());
                      }),
               "GFLOP/s");
    out.metric("tensor.gemm_dB_gflops",
               gflops(tr, "tensor.gemm_dB", M, K, N, reps,
                      [&] {
                        moss::tensor::kernels::gemm_dB(M, K, N, A.data(),
                                                       G.data(), dB.data());
                      }),
               "GFLOP/s");
  }
  out.add_detail("gemm_shapes",
                 "{\"serve_input\":[4096," + std::to_string(serve_feat) +
                     ",16],\"serve_step\":[256,16,16],\"train_input\":[" +
                     std::to_string(train_rows) + "," +
                     std::to_string(train_feat) + ",32],\"train_step\":[" +
                     std::to_string(train_rows) + ",32,32]}");
}

}  // namespace perfbench
