// serve_cold and serve_warm: requests built the way serve::ProtocolHandler
// builds them (ATP/TRP/EMBED/RANK carry a LabeledCircuit, VERIFY two), fed
// by one generator thread through InferenceEngine::submit.
//
// Each run measures two phases on one engine:
//   * saturated: a fixed number of requests outstanding -> throughput;
//   * open loop: a seeded Poisson schedule at the workload's fixed rate,
//     each request timed from its scheduled send to the instant the engine
//     settles its promise -> p50_ms / p99_ms.
// A seeded sample of responses (plus every VERIFY and the first response of
// every kind/design pair) is compared bit for bit with a reference computed
// by direct MossSession / MossModel / EquivOracle calls.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "cluster/segment.hpp"
#include "core_util/error.hpp"
#include "core_util/hash.hpp"
#include "core_util/rng.hpp"
#include "core_util/thread_pool.hpp"
#include "data/mutate.hpp"
#include "power/power.hpp"
#include "sat/oracle.hpp"
#include "serve/cache.hpp"
#include "serve/engine.hpp"
#include "serve/fused.hpp"
#include "serve/registry.hpp"
#include "synth/synthesize.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace serve = moss::serve;
namespace core = moss::core;
namespace data = moss::data;
using moss::Rng;
using serve::RequestKind;

constexpr std::size_t kPoolSize = 32;
constexpr std::size_t kColdDesigns = 84;  ///< 6 per family, 2 per size
constexpr std::size_t kHotDesigns = 64;
constexpr std::size_t kVerifyPairs = 24;  ///< half variants, half mutants
constexpr std::size_t kWindow = 32;       ///< saturated outstanding requests
/// Per-request VERIFY conflict budget (the client's choice, as the
/// protocol's VERIFY budget). Pairs whose proof needs more are not drawn,
/// so no request times out; kWindow of them stay far below the engine's
/// summed in-flight cap (200000), so saturation never trips the typed
/// verify_capacity refusal.
constexpr std::uint64_t kVerifyBudget = 500;
constexpr std::size_t kCacheBytes = 64u << 20;  ///< moss_serve's default
constexpr std::size_t kSaturatedPlan = 16384;

const char* kind_tag(RequestKind k) {
  switch (k) {
    case RequestKind::kAtp: return "atp";
    case RequestKind::kTrpPp: return "trp";
    case RequestKind::kEmbed: return "embed";
    case RequestKind::kFepRank: return "rank";
    case RequestKind::kVerify: return "verify";
  }
  return "?";
}

struct MixEntry {
  RequestKind kind;
  double weight;
};

const std::vector<MixEntry>& mix(bool warm) {
  static const std::vector<MixEntry> cold = {
      {RequestKind::kAtp, 0.30},   {RequestKind::kTrpPp, 0.25},
      {RequestKind::kEmbed, 0.20}, {RequestKind::kFepRank, 0.20},
      {RequestKind::kVerify, 0.05}};
  static const std::vector<MixEntry> hot = {
      {RequestKind::kAtp, 0.30},
      {RequestKind::kTrpPp, 0.25},
      {RequestKind::kEmbed, 0.20},
      {RequestKind::kFepRank, 0.25}};
  return warm ? hot : cold;
}

/// moss_serve / `moss_cli train` model: hidden 16, one round, fresh init.
core::WorkflowConfig serve_config(std::size_t threads) {
  core::WorkflowConfig cfg;
  cfg.model.hidden = 16;
  cfg.model.rounds = 1;
  cfg.dataset.sim_cycles = 400;
  cfg.dataset.threads = threads;
  cfg.encoder = {2048, 16, 9};
  cfg.fine_tune.epochs = 1;
  cfg.fine_tune.max_pairs_per_epoch = 20000;
  return cfg;
}

/// corpus_specs' family rotation and seeds with the size hints fixed to
/// cycle 1, 2, 3 per pass over the families: every seed draws the same mix
/// of families and sizes, and only the designs' structure varies with it.
std::vector<data::DesignSpec> named_specs(std::size_t n, std::uint64_t seed,
                                          const std::string& prefix) {
  std::vector<data::DesignSpec> specs = data::corpus_specs(n, seed, 1, 3);
  const std::size_t fams = data::families().size();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].size_hint = 1 + static_cast<int>((i / fams) % 3);
    specs[i].name = prefix + std::to_string(i) + "_" + specs[i].family;
  }
  return specs;
}

/// One planned request: its kind and target (design index, or VERIFY pair
/// slot).
struct Planned {
  RequestKind kind = RequestKind::kAtp;
  std::uint32_t target = 0;
};

/// Everything generated from the seed before any timing starts.
struct ServeInputs {
  std::vector<data::DesignSpec> designs;
  std::vector<data::DesignSpec> pool;
  std::vector<Planned> saturated;  ///< cycled by the saturated phase
  std::vector<Planned> open_loop;
  std::vector<double> arrival_s;   ///< open-loop send offsets
};

Planned draw(Rng& rng, bool warm, std::size_t designs,
             const std::vector<double>& zipf_cdf,
             const std::vector<std::uint32_t>& zipf_perm) {
  const auto& m = mix(warm);
  double u = rng.uniform();
  Planned p{m.back().kind, 0};
  for (const MixEntry& e : m) {
    if (u < e.weight) {
      p.kind = e.kind;
      break;
    }
    u -= e.weight;
  }
  if (p.kind == RequestKind::kVerify) {
    p.target = static_cast<std::uint32_t>(rng.uniform_u64(kVerifyPairs));
  } else if (warm) {
    const double z = rng.uniform();
    const auto it = std::upper_bound(zipf_cdf.begin(), zipf_cdf.end(), z);
    const std::size_t rank = std::min<std::size_t>(
        static_cast<std::size_t>(it - zipf_cdf.begin()), designs - 1);
    p.target = zipf_perm[rank];
  } else {
    p.target = static_cast<std::uint32_t>(rng.uniform_u64(designs));
  }
  return p;
}

ServeInputs make_inputs(const Options& opt, bool warm, double rate,
                        double open_loop_s) {
  ServeInputs in;
  const std::size_t n_designs =
      opt.tiny ? 6 : (warm ? kHotDesigns : kColdDesigns);
  in.designs = named_specs(n_designs, opt.seed ^ 0x5E5Eull, "q");
  in.pool = named_specs(opt.tiny ? 4 : kPoolSize, opt.seed ^ 0x9001ull, "pool");

  // Zipf(s=1) over the hot set. Popularity rank k is design k, so every
  // seed's hottest designs have the same families and sizes (rank 0 gets
  // a fifth of the traffic, and a warm request's cost scales with the
  // design's size); only the designs' structure and the draw vary.
  std::vector<double> cdf(n_designs);
  double total = 0.0;
  for (std::size_t k = 0; k < n_designs; ++k) {
    total += 1.0 / static_cast<double>(k + 1);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;
  std::vector<std::uint32_t> perm(n_designs);
  std::iota(perm.begin(), perm.end(), 0u);

  Rng rng(opt.seed ^ (warm ? 0x3A3Aull : 0xC01Dull));
  in.saturated.reserve(kSaturatedPlan);
  for (std::size_t i = 0; i < kSaturatedPlan; ++i) {
    in.saturated.push_back(draw(rng, warm, n_designs, cdf, perm));
  }
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= open_loop_s) break;
    in.arrival_s.push_back(t);
    in.open_loop.push_back(draw(rng, warm, n_designs, cdf, perm));
  }
  return in;
}

// ---------------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------------

struct CacheIo {
  double save_ms = 0.0;
  double load_ms = 0.0;
  std::size_t restored = 0;
  std::size_t rejected = 0;
};

/// A loaded serving stack. Member order matters: the engine is destroyed
/// first, before the cache and registry it points into.
struct ServeStack {
  std::vector<std::shared_ptr<const data::LabeledCircuit>> designs;
  std::vector<std::shared_ptr<const data::LabeledCircuit>> pool;
  std::shared_ptr<const serve::MossSession> session;
  std::vector<std::shared_ptr<const core::CircuitBatch>> members;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::EmbeddingCache> cache;
  std::unique_ptr<serve::InferenceEngine> engine;
  double label_s = 0.0;
  std::size_t labeled = 0;
  CacheIo io;
};

/// A VERIFY request's two circuits and the direct oracle check of them.
struct VerifyPair {
  std::shared_ptr<const data::LabeledCircuit> a, b;
  bool mutant = false;
  moss::sat::OracleResult ref;
};

serve::Request make_request(const ServeStack& st, const Planned& p,
                            const std::vector<VerifyPair>& pairs) {
  serve::Request r;
  r.kind = p.kind;
  if (p.kind == RequestKind::kVerify) {
    const VerifyPair& vp = pairs[p.target % pairs.size()];
    r.circuit = vp.a;
    r.circuit_b = vp.b;
    r.verify_conflict_budget = kVerifyBudget;
    return r;
  }
  r.circuit = st.designs[p.target];
  if (p.kind == RequestKind::kFepRank) r.pool = "pool";
  return r;
}

/// Submit `reqs` with at most `window` outstanding and wait for all.
void run_all(serve::InferenceEngine& eng,
             const std::vector<serve::Request>& reqs, std::size_t window) {
  std::deque<std::future<serve::Response>> fl;
  for (const serve::Request& r : reqs) {
    if (fl.size() >= window) {
      fl.front().get();
      fl.pop_front();
    }
    fl.push_back(eng.submit(r));
  }
  for (auto& f : fl) f.get();
}

/// Label designs + pool, load the session (LM fine-tune included) and
/// register the pool; for the warm workload also fill a cache, save it as
/// MOSSSEG1 segments and restore it into the engine's fresh cache.
std::unique_ptr<ServeStack> setup_stack(const Options& opt,
                                        const ServeInputs& in,
                                        bool with_cache) {
  auto st = std::make_unique<ServeStack>();
  const core::WorkflowConfig cfg = serve_config(opt.threads);
  const auto& lib = moss::cell::standard_library();

  std::vector<data::DesignSpec> all = in.designs;
  all.insert(all.end(), in.pool.begin(), in.pool.end());
  const auto t_label = Clock::now();
  std::vector<data::LabeledCircuit> lcs =
      data::build_dataset(all, lib, cfg.dataset);
  st->label_s = seconds_between(t_label, Clock::now());
  st->labeled = lcs.size();
  for (std::size_t i = 0; i < lcs.size(); ++i) {
    auto lc = std::make_shared<const data::LabeledCircuit>(std::move(lcs[i]));
    (i < in.designs.size() ? st->designs : st->pool).push_back(std::move(lc));
  }

  // moss_serve's corpus: the pool designs double as the encoder corpus.
  std::vector<std::string> corpus;
  for (const auto& lc : st->pool) corpus.push_back(lc->module_text);
  st->session = serve::MossSession::load(cfg, corpus, "");
  st->registry = std::make_unique<serve::ModelRegistry>();
  st->registry->install("default", st->session);
  for (const auto& lc : st->pool) {
    st->members.push_back(
        std::make_shared<const core::CircuitBatch>(st->session->build(*lc)));
  }

  serve::EngineConfig ecfg;
  ecfg.threads = opt.threads;
  if (with_cache) {
    // Restart path of a cluster shard: one pass fills a cache, the cache is
    // persisted, and the serving engine boots from a fresh cache restored
    // from the segments.
    {
      serve::EmbeddingCache fill_cache(kCacheBytes);
      serve::InferenceEngine fill(*st->registry, &fill_cache, ecfg);
      fill.register_pool("pool", st->members);
      std::vector<serve::Request> reqs;
      for (std::uint32_t d = 0; d < st->designs.size(); ++d) {
        for (const RequestKind k : {RequestKind::kAtp, RequestKind::kEmbed,
                                    RequestKind::kFepRank}) {
          reqs.push_back(make_request(*st, Planned{k, d}, {}));
        }
      }
      run_all(fill, reqs, kWindow);
      fill.stop();
      const std::string dir = scratch_dir("cache");
      const auto t_save = Clock::now();
      moss::cluster::save_cache(dir, fill_cache, st->session->fingerprint());
      st->io.save_ms = ms_between(t_save, Clock::now());
      st->cache = std::make_unique<serve::EmbeddingCache>(kCacheBytes);
      const auto t_load = Clock::now();
      const moss::cluster::LoadReport lr = moss::cluster::load_cache(
          dir, *st->cache, st->session->fingerprint());
      st->io.load_ms = ms_between(t_load, Clock::now());
      st->io.restored = lr.entries;
      st->io.rejected = lr.segments_rejected;
      std::filesystem::remove_all(dir);
    }
  }
  st->engine = std::make_unique<serve::InferenceEngine>(
      *st->registry, st->cache.get(), ecfg);
  st->engine->register_pool("pool", st->members);
  return st;
}

// ---------------------------------------------------------------------------
// References and output checks
// ---------------------------------------------------------------------------

struct Reference {
  std::vector<double> atp;
  std::vector<double> trp;
  double power_uw = 0.0;
  std::vector<float> embed;
  std::vector<float> rtl;
  std::vector<serve::RankEntry> rank;
};

moss::sat::OracleConfig verify_oracle_config() {
  // The engine's VERIFY settings: EngineConfig defaults (verify_seed 1,
  // 8 frames) and the per-request budget.
  const serve::EngineConfig ecfg;
  moss::sat::OracleConfig ocfg;
  ocfg.seed = ecfg.verify_seed;
  ocfg.conflict_budget = std::min(kVerifyBudget, ecfg.verify_conflict_limit);
  ocfg.max_frames = ecfg.verify_max_frames;
  return ocfg;
}

/// VERIFY pairs as bench_sat builds them: a design against its synthesis
/// variant (expected EQUIVALENT) or against a single-site mutant (expected
/// NOT_EQUIVALENT with a confirmed counterexample). Pairs whose reference
/// check does not settle within the budget are skipped, as are mutations
/// that land on a don't-care; a variant the oracle refutes, or a refutation
/// without a confirmed counterexample, is a defect and goes to `defects`.
std::vector<VerifyPair> make_verify_pairs(const Options& opt,
                                          const ServeStack& st,
                                          std::vector<std::string>& defects) {
  const auto& lib = moss::cell::standard_library();
  const moss::sat::EquivOracle oracle(verify_oracle_config());
  const std::size_t want = opt.tiny ? 2 : kVerifyPairs;
  std::vector<std::uint32_t> order(st.designs.size());
  std::iota(order.begin(), order.end(), 0u);
  Rng rng(opt.seed ^ 0x7E41ull);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_u64(i)]);
  }
  std::vector<VerifyPair> pairs;
  for (const std::uint32_t d : order) {
    if (pairs.size() >= want) break;
    const auto& a = st.designs[d];
    VerifyPair vp;
    vp.a = a;
    vp.mutant = pairs.size() % 2 == 1;
    auto b = std::make_shared<data::LabeledCircuit>(*a);
    if (!vp.mutant) {
      moss::synth::SynthOptions vo;
      vo.merge_gate_trees = false;
      vo.fuse_inverters = false;
      vo.name_suffix = "_variant";
      b->netlist = moss::synth::synthesize(a->module, lib, vo);
      vp.ref = oracle.check(a->netlist, b->netlist);
      if (vp.ref.verdict == moss::sat::Verdict::kNotEquivalent) {
        defects.push_back("oracle refutes the synthesis variant of " +
                          a->netlist.name());
      }
      if (vp.ref.verdict != moss::sat::Verdict::kEquivalent) continue;
    } else {
      Rng mrng(opt.seed ^ moss::fnv1a64(a->netlist.name()));
      bool found = false;
      for (const auto& m : data::sample_mutations(a->netlist, 8, mrng)) {
        b->netlist = data::apply_mutation(a->netlist, m, "_mut");
        vp.ref = oracle.check(a->netlist, b->netlist);
        if (vp.ref.verdict != moss::sat::Verdict::kNotEquivalent) continue;
        if (!vp.ref.cex.confirmed) {
          defects.push_back("unconfirmed counterexample for a mutant of " +
                            a->netlist.name());
          continue;
        }
        found = true;
        break;
      }
      if (!found) continue;
    }
    vp.b = std::move(b);
    pairs.push_back(std::move(vp));
  }
  return pairs;
}

std::vector<Reference> make_references(const Options& opt,
                                       const ServeStack& st) {
  const core::MossModel& model = st.session->model();
  std::vector<moss::tensor::Tensor> pool_e(st.members.size());
  for (std::size_t j = 0; j < st.members.size(); ++j) {
    pool_e[j] = model.netlist_embedding(
        *st.members[j], model.node_embeddings(*st.members[j]));
  }
  moss::ThreadPool tp(opt.threads);
  return tp.parallel_map(st.designs.size(), [&](std::size_t d) {
    const data::LabeledCircuit& lc = *st.designs[d];
    const core::CircuitBatch batch = st.session->build(lc);
    const moss::tensor::Tensor h = model.node_embeddings(batch);
    Reference ref;
    const moss::tensor::Tensor flop =
        model.predict_arrival(batch, h, batch.flop_rows);
    for (std::size_t k = 0; k < batch.flop_rows.size(); ++k) {
      ref.atp.push_back(static_cast<double>(flop.at(k, 0)) *
                        core::kArrivalScale);
    }
    const core::LocalPredictions pred = model.predict_local(batch, h);
    std::vector<double> rates(lc.netlist.num_nodes(), 0.0);
    for (std::size_t k = 0; k < batch.cell_rows.size(); ++k) {
      const double t = static_cast<double>(pred.toggle.at(k, 0));
      ref.trp.push_back(t);
      rates[static_cast<std::size_t>(batch.cell_rows[k])] = t;
    }
    ref.power_uw = moss::power::analyze_power(lc.netlist, rates).total_uw;
    ref.embed = model.netlist_embedding(batch, h).data();
    const moss::tensor::Tensor r_e = model.rtl_embedding(lc.module_text);
    ref.rtl = r_e.data();
    for (std::size_t j = 0; j < pool_e.size(); ++j) {
      ref.rank.push_back(serve::RankEntry{j, st.members[j]->name,
                                          model.pair_score(r_e, pool_e[j])});
    }
    std::sort(ref.rank.begin(), ref.rank.end(),
              [](const serve::RankEntry& a, const serve::RankEntry& b) {
                return a.score != b.score ? a.score > b.score
                                          : a.index < b.index;
              });
    return ref;
  });
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Compares one response with its reference; returns what differs (empty
/// when it matches).
std::string diff(const Planned& p, const serve::Response& r,
                 const std::vector<Reference>& refs,
                 const std::vector<VerifyPair>& pairs) {
  if (p.kind == RequestKind::kVerify) {
    const VerifyPair& vp = pairs[p.target % pairs.size()];
    const char* want = vp.mutant ? "NOT_EQUIVALENT" : "EQUIVALENT";
    if (r.verdict != want) return "verdict " + r.verdict + " != " + want;
    if (r.verify_conflicts != vp.ref.stats.conflicts ||
        r.verify_frames != vp.ref.frames_checked) {
      return "conflicts/frames differ from the direct oracle check";
    }
    if (vp.mutant && r.verify_cex.empty()) return "missing counterexample";
    return {};
  }
  const Reference& ref = refs[p.target];
  switch (p.kind) {
    case RequestKind::kAtp:
      return same_bits(r.values, ref.atp) ? "" : "ATP arrivals differ";
    case RequestKind::kTrpPp:
      if (!same_bits(r.values, ref.trp)) return "TRP toggle rates differ";
      return same_bits(r.power_uw, ref.power_uw) ? "" : "TRP power differs";
    case RequestKind::kEmbed:
      if (!same_bits(r.embedding, ref.embed)) {
        return "netlist embedding differs";
      }
      return same_bits(r.rtl_embedding, ref.rtl) ? "" : "RTL embedding differs";
    case RequestKind::kFepRank:
      if (r.ranking.size() != ref.rank.size()) return "ranking size differs";
      for (std::size_t i = 0; i < ref.rank.size(); ++i) {
        const auto& a = r.ranking[i];
        const auto& b = ref.rank[i];
        if (a.index != b.index || a.name != b.name ||
            std::memcmp(&a.score, &b.score, sizeof a.score) != 0) {
          return "ranking differs at position " + std::to_string(i);
        }
      }
      return {};
    case RequestKind::kVerify:
      break;
  }
  return "unknown kind";
}

/// Which responses get compared: every VERIFY, the first response of every
/// (kind, target) pair, and a seeded quarter of the rest.
class Checker {
 public:
  Checker(const Options& opt, const std::vector<Reference>& refs,
          const std::vector<VerifyPair>& pairs, Result& out)
      : seed_(opt.seed), refs_(refs), pairs_(pairs), out_(out) {}

  void check(const char* phase, std::size_t i, const Planned& p,
             const serve::Response& r) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(p.kind) << 32) | p.target;
    const bool first = seen_.insert(key).second;
    const std::uint64_t h = moss::HashBuilder()
                                .mix(seed_)
                                .mix(static_cast<std::uint64_t>(i))
                                .mix(std::string_view(phase))
                                .digest();
    if (!first && p.kind != RequestKind::kVerify && h % 4 != 0) return;
    ++checked_;
    const std::string why = diff(p, r, refs_, pairs_);
    if (!why.empty()) {
      out_.mismatch(std::string(phase) + " request #" + std::to_string(i) +
                    " " + kind_tag(p.kind) + " target=" +
                    std::to_string(p.target) + ": " + why);
    }
  }
  std::uint64_t checked() const { return checked_; }

 private:
  std::uint64_t seed_;
  const std::vector<Reference>& refs_;
  const std::vector<VerifyPair>& pairs_;
  Result& out_;
  std::unordered_set<std::uint64_t> seen_;
  std::uint64_t checked_ = 0;
};

std::string error_reason(const std::exception& e) {
  if (const auto* ce = dynamic_cast<const moss::ContextError*>(&e)) {
    for (const auto& [k, v] : ce->context()) {
      if (k == "reason") return v;
    }
  }
  return "other";
}

// ---------------------------------------------------------------------------
// Measured phases
// ---------------------------------------------------------------------------

struct Prepared {
  std::vector<Planned> plan;
  std::vector<serve::Request> reqs;
};

Prepared prepare(const ServeStack& st, const std::vector<Planned>& plan,
                 const std::vector<VerifyPair>& pairs) {
  Prepared out;
  out.plan = plan;
  for (const Planned& p : plan) out.reqs.push_back(make_request(st, p, pairs));
  return out;
}

struct SaturatedStats {
  PhaseCount count;
  std::uint64_t completed_in_window = 0;
  double seconds = 0.0;  ///< start to the last in-window completion
  double throughput() const {
    return seconds > 0.0 ? static_cast<double>(completed_in_window) / seconds
                         : 0.0;
  }
};

/// Keep kWindow requests outstanding for `duration_s`; completions seen
/// before the deadline count toward throughput, the drain after it does
/// not. `checker` may be null (warm-up).
SaturatedStats run_saturated(serve::InferenceEngine& eng, const Prepared& in,
                             std::size_t& cursor, double duration_s,
                             Checker* checker) {
  struct InFlight {
    std::future<serve::Response> fut;
    std::size_t i;
  };
  SaturatedStats s;
  std::vector<InFlight> fl;
  fl.reserve(kWindow);
  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(duration_s));
  auto last = t0;
  const auto collect = [&](InFlight& f, bool in_window) {
    const Planned& p = in.plan[f.i % in.plan.size()];
    try {
      const serve::Response r = f.fut.get();
      ++s.count.succeeded;
      if (in_window) ++s.completed_in_window;
      if (checker != nullptr) checker->check("saturated", f.i, p, r);
    } catch (const std::exception& e) {
      s.count.add_error(error_reason(e), /*at_submit=*/false);
    }
  };
  for (;;) {
    const auto now = Clock::now();
    const bool open = now < end;
    while (open && fl.size() < kWindow) {
      const std::size_t i = cursor++;
      ++s.count.sent;
      try {
        fl.push_back({eng.submit(in.reqs[i % in.reqs.size()]), i});
      } catch (const std::exception& e) {
        s.count.add_error(error_reason(e), /*at_submit=*/true);
      }
    }
    if (fl.empty()) {
      if (!open) break;
      continue;
    }
    fl.front().fut.wait_for(std::chrono::microseconds(100));
    const auto seen = Clock::now();
    const bool in_window = seen < end;
    for (std::size_t k = 0; k < fl.size();) {
      if (fl[k].fut.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        collect(fl[k], in_window);
        if (in_window) last = seen;
        fl[k] = std::move(fl.back());
        fl.pop_back();
      } else {
        ++k;
      }
    }
    if (!open && fl.empty()) break;
  }
  s.seconds = seconds_between(t0, last);
  return s;
}

struct OpenLoopStats {
  PhaseCount count;
  std::vector<double> latency_ms;  ///< +inf for failed / refused
  std::vector<double> lag_ms;      ///< generator lateness per send
};

/// Poisson open loop: the generator sends request i at arrival_s[i]
/// (never retrying); a collector thread resolves the futures in order.
/// Latency = (send - scheduled) + the engine's enqueue-to-settle time, i.e.
/// scheduled send to the moment the promise is fulfilled, without the
/// collector's own head-of-line wait.
OpenLoopStats run_open_loop(serve::InferenceEngine& eng, const Prepared& in,
                            const std::vector<double>& arrival_s,
                            Checker* checker) {
  const std::size_t n = in.reqs.size();
  OpenLoopStats s;
  s.latency_ms.assign(n, std::numeric_limits<double>::infinity());
  s.lag_ms.reserve(n);
  struct Sent {
    std::future<serve::Response> fut;
    std::size_t i;
    double late_ms;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Sent> q;
  bool done = false;
  PhaseCount collected;  // written by the collector only

  std::thread collector([&] {
    for (;;) {
      Sent item;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return done || !q.empty(); });
        if (q.empty()) return;
        item = std::move(q.front());
        q.pop_front();
      }
      const Planned& p = in.plan[item.i];
      try {
        const serve::Response r = item.fut.get();
        const double ms = item.late_ms + r.latency_us * 1e-3;
        s.latency_ms[item.i] = ms;
        ++collected.succeeded;
        if (checker != nullptr) checker->check("open_loop", item.i, p, r);
      } catch (const std::exception& e) {
        collected.add_error(error_reason(e), /*at_submit=*/false);
      }
    }
  });

  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(arrival_s[i]));
    std::this_thread::sleep_until(due);
    const auto sent = Clock::now();
    const double late_ms = std::max(0.0, ms_between(due, sent));
    s.lag_ms.push_back(late_ms);
    ++s.count.sent;
    try {
      std::future<serve::Response> f = eng.submit(in.reqs[i]);
      {
        const std::lock_guard<std::mutex> lk(mu);
        q.push_back({std::move(f), i, late_ms});
      }
      cv.notify_one();
    } catch (const std::exception& e) {
      s.count.add_error(error_reason(e), /*at_submit=*/true);
    }
  }
  {
    const std::lock_guard<std::mutex> lk(mu);
    done = true;
  }
  cv.notify_one();
  collector.join();
  s.count.merge(collected);
  return s;
}

std::string counters_json(const serve::MetricsSnapshot& m,
                          const serve::CacheStats* cs) {
  std::string s = "{\"batches\":" + std::to_string(m.batches) +
                  ",\"mean_batch\":" + json_number(m.mean_batch_size) +
                  ",\"fused_batches\":" + std::to_string(m.fused_batches) +
                  ",\"fused_rows\":" + std::to_string(m.fused_rows) +
                  ",\"fused_retries\":" + std::to_string(m.fused_retries) +
                  ",\"queue_peak\":" + std::to_string(m.queue_peak);
  if (cs != nullptr) {
    s += ",\"cache_hits\":" + std::to_string(cs->hits) +
         ",\"cache_misses\":" + std::to_string(cs->misses) +
         ",\"cache_evictions\":" + std::to_string(cs->evictions);
  }
  return s + "}";
}

void account(Result& out, const PhaseCount& c) {
  out.attempted += c.sent;
  out.failed += c.failed + c.refused_total();
}

/// A fully prepared serving run: stack, VERIFY pairs, references and the
/// request lists. Built before any measured phase starts.
struct ServeRun {
  ServeInputs in;
  std::unique_ptr<ServeStack> st;
  std::vector<VerifyPair> pairs;
  std::vector<Reference> refs;
  Prepared saturated;
  Prepared open_loop;
  std::vector<double> setup_s;
  std::vector<double> label_rate;
  std::vector<std::string> defects;  ///< found while building the inputs
};

ServeRun prepare_run(const Options& opt, bool warm, double rate,
                     double open_loop_s, int setup_reps) {
  ServeRun run;
  run.in = make_inputs(opt, warm, rate, open_loop_s);
  for (int rep = 0; rep < setup_reps; ++rep) {
    run.st.reset();  // the previous stack's engine stops first
    const auto t0 = Clock::now();
    run.st = setup_stack(opt, run.in, warm);
    run.setup_s.push_back(seconds_between(t0, Clock::now()));
    run.label_rate.push_back(static_cast<double>(run.st->labeled) /
                             run.st->label_s);
  }
  if (!warm) run.pairs = make_verify_pairs(opt, *run.st, run.defects);
  run.refs = make_references(opt, *run.st);
  if (opt.corrupt_reference) {
    // Self-test hook: nudge one arrival the run is certain to check (the
    // first ATP request of the saturated plan is always compared).
    for (const Planned& p : run.in.saturated) {
      if (p.kind == RequestKind::kAtp && !run.refs[p.target].atp.empty()) {
        double& v = run.refs[p.target].atp[0];
        v = std::nextafter(v, std::numeric_limits<double>::infinity());
        break;
      }
    }
  }
  run.saturated = prepare(*run.st, run.in.saturated, run.pairs);
  run.open_loop = prepare(*run.st, run.in.open_loop, run.pairs);
  return run;
}

}  // namespace

Result run_serve(const Options& opt, bool warm, double rate) {
  Result out;
  // Throughput is the median over segments of the saturated phase, so a
  // stall of the shared host inside one segment does not move it.
  const int segments = opt.tiny ? 1 : 10;
  const double saturated_s = opt.seconds * 0.30 / segments;
  const double warmup_s = opt.seconds * 0.05;
  const double open_loop_s = opt.seconds * 0.60;
  ServeRun run =
      prepare_run(opt, warm, rate, open_loop_s, opt.tiny ? 1 : 9);
  if (!warm && run.pairs.size() < (opt.tiny ? 2u : kVerifyPairs)) {
    out.mismatch("could not build the VERIFY pairs");
  }
  for (const std::string& d : run.defects) out.mismatch(d);
  Checker checker(opt, run.refs, run.pairs, out);

  SaturatedStats sat;
  std::vector<double> seg_throughput;
  serve::InferenceEngine& eng = *run.st->engine;
  std::size_t cursor = 0;
  run_saturated(eng, run.saturated, cursor, warmup_s, nullptr);
  for (int seg = 0; seg < segments; ++seg) {
    const SaturatedStats s =
        run_saturated(eng, run.saturated, cursor, saturated_s, &checker);
    seg_throughput.push_back(s.throughput());
    sat.count.merge(s.count);
    sat.completed_in_window += s.completed_in_window;
  }
  const serve::MetricsSnapshot snap = eng.metrics().snapshot();
  std::optional<serve::CacheStats> cs;
  if (run.st->cache) cs = run.st->cache->stats();

  const OpenLoopStats ol =
      run_open_loop(eng, run.open_loop, run.in.arrival_s, &checker);

  account(out, sat.count);
  account(out, ol.count);
  std::string beyond_p99;
  const double p99 = segment_quantile(ol.latency_ms, 0.99, &beyond_p99);
  out.metric("throughput", median(seg_throughput), "1/s");
  out.metric("p50_ms", segment_quantile(ol.latency_ms, 0.50), "ms");
  out.metric("p99_ms", p99, "ms");
  out.metric("label_designs_per_s", median(run.label_rate), "designs/s");
  out.metric("setup_s", median(run.setup_s), "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");

  out.add_detail("saturated", phase_json(sat.count));
  out.add_detail("open_loop", phase_json(ol.count));
  out.add_detail(
      "samples",
      "{\"open_loop\":" + std::to_string(ol.latency_ms.size()) +
          ",\"beyond_p99_per_segment\":\"" + beyond_p99 + "\"" +
          ",\"saturated_completed\":" +
          std::to_string(sat.completed_in_window) +
          ",\"setup_reps\":" + std::to_string(run.setup_s.size()) +
          ",\"segments\":" + std::to_string(segments) +
          ",\"checked\":" + std::to_string(checker.checked()) + "}");
  if (!warm) {
    std::string vp = "[";
    for (const VerifyPair& p : run.pairs) {
      vp += std::string(vp.size() > 1 ? "," : "") + "{\"mutant\":" +
            (p.mutant ? "true" : "false") + ",\"conflicts\":" +
            std::to_string(p.ref.stats.conflicts) + ",\"frames\":" +
            std::to_string(p.ref.frames_checked) + "}";
    }
    out.add_detail("verify_pairs", vp + "]");
  }
  std::string segs = "[";
  for (const double t : seg_throughput) {
    segs += (segs.size() > 1 ? "," : "") + json_number(t);
  }
  out.add_detail("segment_throughput", segs + "]");
  out.add_detail("rate_per_s", json_number(rate));
  out.add_detail("gen_lag_p99_ms", json_number(quantile(ol.lag_ms, 0.99)));
  out.add_detail("engine", counters_json(snap, cs ? &*cs : nullptr));
  if (warm) {
    out.add_detail("cache_restore",
                   "{\"restored\":" + std::to_string(run.st->io.restored) +
                       ",\"rejected_segments\":" +
                       std::to_string(run.st->io.rejected) + "}");
    if (run.st->io.rejected != 0 || run.st->io.restored == 0) {
      out.mismatch("cache restore lost segments");
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Traced run, serving half
// ---------------------------------------------------------------------------

namespace {

struct SoloSample {
  double solo_ms = 0.0;
  double layers_ms = 0.0;  ///< sum of the decomposed layer spans
};

/// A cache entry the warm decomposition relies on: the restored cache must
/// hold it, or the replay would not be the path the engine took.
moss::tensor::Tensor must_get(serve::EmbeddingCache& cache, std::uint64_t key) {
  std::optional<moss::tensor::Tensor> t = cache.get(key);
  if (!t) throw std::runtime_error("warm cache lost an entry during the trace");
  return std::move(*t);
}

/// Replays the public calls the engine makes for one request, each in its
/// own span under one root, and returns the summed layer time.
double decompose(Tracer& tr, const ServeStack& st, const serve::Request& req,
                 bool warm, std::uint64_t id, const std::string& root,
                 SatTally& sat) {
  const Tracer::Scope rs(tr, root, id);
  const core::MossModel& model = st.session->model();
  const std::uint64_t fp = st.session->fingerprint();
  const std::size_t first = tr.spans().size();
  if (req.kind == RequestKind::kVerify) {
    const moss::sat::EquivOracle oracle(verify_oracle_config());
    moss::sat::OracleResult res;
    {
      const Tracer::Scope s(tr, "sat.check");
      res = oracle.check(req.circuit->netlist, req.circuit_b->netlist);
    }
    sat.add(res);
  } else if (req.kind == RequestKind::kFepRank) {
    // A lone FEP-rank request takes the fused path: the pool is stacked
    // into one propagation (cold) or read from the cache (warm).
    std::vector<moss::tensor::Tensor> n_e(st.members.size());
    if (warm) {
      for (std::size_t j = 0; j < st.members.size(); ++j) {
        const Tracer::Scope s(tr, "cache.get");
        const std::uint64_t h = core::content_hash(*st.members[j]);
        n_e[j] = must_get(*st.cache, serve::netlist_key(fp, h));
      }
    } else {
      std::vector<serve::FusedUnit> units;
      for (const auto& m : st.members) {
        units.push_back({m, core::content_hash(*m)});
      }
      serve::FusedForward ff;
      {
        const Tracer::Scope s(tr, "serve.fused_forward");
        ff = serve::fused_node_embeddings(*st.session, units);
      }
      for (std::size_t j = 0; j < st.members.size(); ++j) {
        const Tracer::Scope s(tr, "core.netlist_embedding");
        n_e[j] = model.netlist_embedding(*st.members[j], ff.node_h[j]);
      }
    }
    moss::tensor::Tensor r_e;
    if (warm) {
      const Tracer::Scope s(tr, "cache.get");
      r_e = must_get(*st.cache, serve::rtl_key(fp, req.circuit->module_text));
    } else {
      const Tracer::Scope s(tr, "lm.rtl_embedding");
      r_e = model.rtl_embedding(req.circuit->module_text);
    }
    for (std::size_t j = 0; j < n_e.size(); ++j) {
      const Tracer::Scope s(tr, "core.pair_score");
      (void)model.pair_score(r_e, n_e[j]);
    }
  } else {
    std::optional<core::CircuitBatch> batch;
    {
      const Tracer::Scope s(tr, "core.build_batch");
      batch.emplace(st.session->build(*req.circuit));
    }
    std::uint64_t h = 0;
    {
      const Tracer::Scope s(tr, "core.content_hash");
      h = core::content_hash(*batch);
    }
    moss::tensor::Tensor node_h;
    const bool needs_nodes = req.kind != RequestKind::kEmbed || !warm;
    if (needs_nodes) {
      if (warm) {
        const Tracer::Scope s(tr, "cache.get");
        node_h = must_get(*st.cache, serve::node_embedding_key(fp, h));
      } else {
        const Tracer::Scope s(tr, "core.node_embeddings");
        node_h = model.node_embeddings(*batch);
      }
    }
    switch (req.kind) {
      case RequestKind::kAtp: {
        const Tracer::Scope s(tr, "core.predict_arrival");
        (void)model.predict_arrival(*batch, node_h, batch->flop_rows);
        break;
      }
      case RequestKind::kTrpPp: {
        core::LocalPredictions pred;
        {
          const Tracer::Scope s(tr, "core.predict_local");
          pred = model.predict_local(*batch, node_h);
        }
        std::vector<double> rates(req.circuit->netlist.num_nodes(), 0.0);
        for (std::size_t k = 0; k < batch->cell_rows.size(); ++k) {
          rates[static_cast<std::size_t>(batch->cell_rows[k])] =
              static_cast<double>(pred.toggle.at(k, 0));
        }
        const Tracer::Scope s(tr, "power.analyze");
        (void)moss::power::analyze_power(req.circuit->netlist, rates);
        break;
      }
      case RequestKind::kEmbed: {
        if (warm) {
          {
            const Tracer::Scope s(tr, "cache.get");
            (void)must_get(*st.cache, serve::netlist_key(fp, h));
          }
          const Tracer::Scope s(tr, "cache.get");
          (void)must_get(*st.cache, serve::rtl_key(fp, batch->module_text));
        } else {
          {
            const Tracer::Scope s(tr, "core.netlist_embedding");
            (void)model.netlist_embedding(*batch, node_h);
          }
          const Tracer::Scope s(tr, "lm.rtl_embedding");
          (void)model.rtl_embedding(batch->module_text);
        }
        break;
      }
      default:
        break;
    }
  }
  double sum = 0.0;
  const auto& spans = tr.spans();
  const auto root_index = static_cast<std::int64_t>(first) - 1;
  for (std::size_t i = first; i < spans.size(); ++i) {
    if (spans[i].parent == root_index) {
      sum += static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-6;
    }
  }
  return sum;
}

std::vector<SoloSample> solo_replay(Tracer& tr, ServeRun& run, bool warm,
                                    RequestKind kind, std::size_t n,
                                    std::uint64_t& next_id, SatTally& sat) {
  std::vector<SoloSample> out;
  const char* engine_tag = warm ? "warm" : "cold";
  const std::string solo = std::string("serve.solo.") + engine_tag + "." +
                           kind_tag(kind);
  const std::string decomp = std::string("serve.decompose.") + engine_tag +
                             "." + kind_tag(kind);
  std::size_t taken = 0;
  for (std::size_t i = 0; i < run.saturated.plan.size() && taken < n; ++i) {
    if (run.saturated.plan[i].kind != kind) continue;
    ++taken;
    const std::uint64_t id = next_id++;
    SoloSample s;
    const serve::Request& req = run.saturated.reqs[i];
    {
      const Tracer::Scope sc(tr, solo, id);
      const auto t0 = Clock::now();
      (void)run.st->engine->call(req);
      s.solo_ms = ms_between(t0, Clock::now());
    }
    s.layers_ms = decompose(tr, *run.st, req, warm, id, decomp, sat);
    out.push_back(s);
  }
  return out;
}

double mix_weighted_p50(bool warm, const std::vector<double> (&solo)[5]) {
  // Solo p50 over the same kind mix the open loop sent.
  double sum = 0.0, w = 0.0;
  for (const MixEntry& e : mix(warm)) {
    const auto k = static_cast<std::size_t>(e.kind);
    if (solo[k].empty()) continue;
    sum += e.weight * median(solo[k]);
    w += e.weight;
  }
  return w > 0.0 ? sum / w : 0.0;
}

}  // namespace

void trace_serve(const Options& opt, const Rates& rates, Tracer& tr,
                 SatTally& sat, Result& out) {
  const double phase_s = std::max(0.2, opt.seconds * 0.08);
  const std::size_t per_kind = opt.tiny ? 2 : 16;
  std::uint64_t next_id = 1;

  for (const bool warm : {false, true}) {
    const char* tag = warm ? "warm" : "cold";
    ServeRun run = prepare_run(opt, warm, warm ? rates.warm : rates.cold,
                               phase_s, 1);
    if (warm) {
      out.metric("cluster.save_cache_ms", run.st->io.save_ms, "ms");
      out.metric("cluster.load_cache_ms", run.st->io.load_ms, "ms");
      out.metric("cluster.restored_entries",
                 static_cast<double>(run.st->io.restored), "count");
    }
    serve::InferenceEngine& eng = *run.st->engine;
    for (const std::string& d : run.defects) out.mismatch(d);
    Checker checker(opt, run.refs, run.pairs, out);

    // Untraced phases first: the engine counters and the observed p50.
    std::size_t cursor = 0;
    const SaturatedStats satur =
        run_saturated(eng, run.saturated, cursor, phase_s, &checker);
    const serve::MetricsSnapshot m = eng.metrics().snapshot();
    const OpenLoopStats ol =
        run_open_loop(eng, run.open_loop, run.in.arrival_s, &checker);
    account(out, satur.count);
    account(out, ol.count);
    out.add_detail(std::string("engine_") + tag,
                   counters_json(m, nullptr));
    if (!warm) {
      std::uint64_t units = 0, props = 0;
      for (std::size_t i = 0; i < m.fused_occupancy.size(); ++i) {
        units += (i + 1) * m.fused_occupancy[i];
        props += m.fused_occupancy[i];
      }
      out.metric("serve.batches", static_cast<double>(m.batches), "count");
      out.metric("serve.mean_batch", m.mean_batch_size, "req");
      out.metric("serve.fused_rows_per_prop",
                 m.fused_batches == 0
                     ? 0.0
                     : static_cast<double>(m.fused_rows) /
                           static_cast<double>(m.fused_batches),
                 "rows");
      out.metric("serve.queue_peak", static_cast<double>(m.queue_peak),
                 "count");
      // Fused forward at the occupancy the engine actually ran.
      const std::size_t occ = std::max<std::size_t>(
          1, props == 0 ? 1
                        : static_cast<std::size_t>(std::llround(
                              static_cast<double>(units) /
                              static_cast<double>(props))));
      std::vector<serve::FusedUnit> group;
      for (std::size_t j = 0; j < occ; ++j) {
        const std::shared_ptr<const core::CircuitBatch> batch =
            j < run.st->members.size()
                ? run.st->members[j]
                : std::make_shared<const core::CircuitBatch>(
                      run.st->session->build(
                          *run.st->designs[j % run.st->designs.size()]));
        group.push_back({batch, core::content_hash(*batch)});
      }
      std::size_t rows = 0;
      for (int rep = 0; rep < (opt.tiny ? 2 : 8); ++rep) {
        const Tracer::Scope s(tr, "serve.fused_forward.group");
        rows = serve::fused_node_embeddings(*run.st->session, group).rows;
      }
      const double fused_ms = tr.median_self_ms("serve.fused_forward.group");
      out.metric("serve.fused_forward_ms", fused_ms, "ms");
      out.metric("serve.fused_rows_per_s",
                 fused_ms > 0.0 ? static_cast<double>(rows) / fused_ms * 1e3
                                : 0.0,
                 "rows/s");
      out.add_detail("fused_group_units", std::to_string(occ));
    } else {
      const serve::CacheStats cs = run.st->cache->stats();
      out.metric("serve.queue_peak.warm", static_cast<double>(m.queue_peak),
                 "count");
      out.metric("cache.hit_ratio",
                 cs.hits + cs.misses == 0
                     ? 0.0
                     : static_cast<double>(cs.hits) /
                           static_cast<double>(cs.hits + cs.misses),
                 "ratio");
      out.metric("cache.evictions", static_cast<double>(cs.evictions),
                 "count");
    }
    out.metric(warm ? "serve.fused_retries.warm" : "serve.fused_retries",
               static_cast<double>(m.fused_retries), "count");

    // Traced solo replays and their decomposition.
    std::vector<double> solo[5];
    double share_num = 0.0, share_den = 0.0;
    for (const MixEntry& e : mix(warm)) {
      const auto samples =
          solo_replay(tr, run, warm, e.kind, per_kind, next_id, sat);
      double s_sum = 0.0, l_sum = 0.0;
      for (const SoloSample& s : samples) {
        solo[static_cast<std::size_t>(e.kind)].push_back(s.solo_ms);
        s_sum += s.solo_ms;
        l_sum += s.layers_ms;
      }
      const std::string k = kind_tag(e.kind);
      const std::string suffix = warm ? ".warm." + k : "." + k;
      out.metric("serve.solo_ms" + suffix,
                 median(solo[static_cast<std::size_t>(e.kind)]), "ms");
      const double share =
          s_sum > 0.0 ? std::max(0.0, 1.0 - l_sum / s_sum) : 0.0;
      out.metric("serve.unattributed_share" + suffix, share, "ratio");
      share_num += e.weight * std::max(0.0, s_sum - l_sum) /
                   std::max<double>(1.0, static_cast<double>(samples.size()));
      share_den += e.weight * s_sum /
                   std::max<double>(1.0, static_cast<double>(samples.size()));
    }
    if (warm) {
      out.metric("serve.unattributed_share",
                 share_den > 0.0 ? share_num / share_den : 0.0, "ratio");
    }
    const double observed = quantile(ol.latency_ms, 0.5);
    out.metric(warm ? "serve.wait_ms.warm" : "serve.wait_ms",
               observed - mix_weighted_p50(warm, solo), "ms");
    out.metric(warm ? "serve.gen_lag_ms.warm" : "serve.gen_lag_ms",
               quantile(ol.lag_ms, 0.99), "ms");

    if (warm) {
      // Cache probes and inserts on the keys the restored cache holds.
      const auto entries = run.st->cache->export_entries();
      serve::EmbeddingCache scratch(kCacheBytes);
      const std::size_t n = std::min<std::size_t>(entries.size(), 512);
      for (std::size_t i = 0; i < n; ++i) {
        const Tracer::Scope s(tr, "cache.get");
        (void)run.st->cache->get(entries[i].first);
      }
      for (std::size_t i = 0; i < n; ++i) {
        const Tracer::Scope s(tr, "cache.put");
        scratch.put(entries[i].first, entries[i].second);
      }
      // Head math on cached node embeddings.
      const std::uint64_t fp = run.st->session->fingerprint();
      const core::MossModel& model = run.st->session->model();
      for (std::size_t d = 0; d < std::min<std::size_t>(
                                      run.st->designs.size(), per_kind);
           ++d) {
        const core::CircuitBatch batch =
            run.st->session->build(*run.st->designs[d]);
        const std::optional<moss::tensor::Tensor> h = run.st->cache->get(
            serve::node_embedding_key(fp, core::content_hash(batch)));
        if (!h) continue;
        const Tracer::Scope s(tr, "core.heads");
        (void)model.predict_local(batch, *h);
        (void)model.predict_arrival(batch, *h, batch.flop_rows);
        (void)model.netlist_embedding(batch, *h);
      }
    } else {
      // lm.fine_tune on the serving encoder config (inside
      // MossSession::load during set-up).
      const core::WorkflowConfig cfg = serve_config(opt.threads);
      std::vector<std::string> corpus;
      for (const auto& lc : run.st->pool) corpus.push_back(lc->module_text);
      moss::lm::TextEncoder enc(cfg.encoder);
      Rng rng(cfg.seed ^ 0xF17E);
      {
        const Tracer::Scope s(tr, "lm.fine_tune.serve");
        moss::lm::fine_tune(enc, corpus, cfg.fine_tune, rng);
      }
      out.metric("lm.fine_tune_s.serve",
                 tr.median_self_ms("lm.fine_tune.serve") * 1e-3, "s");
    }
  }
  out.metric("failed_frac",
             out.attempted == 0 ? 0.0
                                : static_cast<double>(out.failed) /
                                      static_cast<double>(out.attempted),
             "ratio");
  for (const char* name :
       {"core.build_batch", "core.content_hash", "cache.get", "cache.put",
        "core.heads", "core.pair_score", "lm.rtl_embedding"}) {
    out.metric(std::string(name) + "_us", tr.median_self_ms(name) * 1e3, "us");
  }
  out.metric("core.node_embeddings_ms",
             tr.median_self_ms("core.node_embeddings"), "ms");
}

}  // namespace perfbench
