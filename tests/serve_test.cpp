// moss::serve test suite: embedding-cache LRU/budget/concurrency semantics,
// bit-identical cached-vs-direct inference for all four model-backed request
// kinds, micro-batching overload behavior (typed queue-full rejections,
// deadlines), fault-injection request isolation, registry hot-swap, metrics
// output, and the VERIFY latency class (SAT-oracle verdicts end to end,
// conflict-budget admission, typed verify_timeout/bad_request errors).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluate.hpp"
#include "core_util/error.hpp"
#include "core_util/fault.hpp"
#include "core_util/thread_pool.hpp"
#include "data/mutate.hpp"
#include "plan/plan.hpp"
#include "power/power.hpp"
#include "sat/oracle.hpp"
#include "serve/cache.hpp"
#include "serve/engine.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "tensor/kernels.hpp"

namespace moss {
namespace {

using serve::EmbeddingCache;
using serve::InferenceEngine;
using serve::ModelRegistry;
using serve::Request;
using serve::RequestKind;
using serve::Response;
using tensor::Tensor;

/// Guard that disarms every fault site on scope exit, so a failing
/// EXPECT_THROW cannot leak an armed fault into later tests.
struct FaultGuard {
  ~FaultGuard() { testing::disarm_all_faults(); }
};

Tensor filled(std::size_t cols, float base) {
  Tensor t = Tensor::zeros(1, cols);
  for (std::size_t i = 0; i < cols; ++i) {
    t.data()[i] = base + 0.25f * static_cast<float>(i);
  }
  return t;
}

// ---------------------------------------------------------------------------
// EmbeddingCache

// One 16-float entry costs 16*4 payload + fixed overhead.
constexpr std::size_t kEntry = 16 * 4 + EmbeddingCache::kEntryOverhead;

TEST(EmbeddingCache, HitReturnsIdenticalStorage) {
  EmbeddingCache cache(1 << 20, 1);
  const Tensor v = filled(16, 3.0f);
  cache.put(7, v);
  const auto got = cache.get(7);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->data(), v.data());
  EXPECT_FALSE(cache.get(8).has_value());
  const auto st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.inserts, 1u);
}

TEST(EmbeddingCache, LruEvictionOrderRespectsRecency) {
  EmbeddingCache cache(3 * kEntry, 1);  // exactly three entries fit
  cache.put(1, filled(16, 1.0f));
  cache.put(2, filled(16, 2.0f));
  cache.put(3, filled(16, 3.0f));
  ASSERT_TRUE(cache.get(1).has_value());  // refresh 1 -> LRU victim is 2
  cache.put(4, filled(16, 4.0f));
  EXPECT_FALSE(cache.get(2).has_value()) << "LRU entry 2 should be evicted";
  EXPECT_TRUE(cache.get(1).has_value());
  EXPECT_TRUE(cache.get(3).has_value());
  EXPECT_TRUE(cache.get(4).has_value());
  const auto st = cache.stats();
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.entries, 3u);
}

TEST(EmbeddingCache, ByteBudgetNeverExceeded) {
  EmbeddingCache cache(2 * kEntry, 1);
  for (std::uint64_t k = 0; k < 10; ++k) cache.put(k, filled(16, 0.5f));
  auto st = cache.stats();
  EXPECT_LE(st.bytes, cache.byte_budget());
  EXPECT_EQ(st.bytes, st.entries * kEntry);
  EXPECT_EQ(st.entries, 2u);
  EXPECT_EQ(st.evictions, 8u);

  // Overweight values are refused outright, not admitted-then-evicted —
  // and the refusal is counted, not silent.
  const Tensor huge = filled(1024, 1.0f);  // > 2*kEntry budget
  ASSERT_GT(EmbeddingCache::entry_bytes(huge), cache.byte_budget());
  EXPECT_EQ(st.oversize_rejections, 0u);
  cache.put(99, huge);
  EXPECT_FALSE(cache.get(99).has_value());
  st = cache.stats();
  EXPECT_EQ(st.entries, 2u);
  EXPECT_LE(st.bytes, cache.byte_budget());
  EXPECT_EQ(st.oversize_rejections, 1u);
  cache.put(99, huge);
  EXPECT_EQ(cache.stats().oversize_rejections, 2u);
}

TEST(EmbeddingCache, ReplacingAKeyKeepsAccountingExact) {
  EmbeddingCache cache(1 << 20, 1);
  cache.put(5, filled(16, 1.0f));
  cache.put(5, filled(16, 2.0f));  // refresh, not a second entry
  const auto st = cache.stats();
  EXPECT_EQ(st.entries, 1u);
  EXPECT_EQ(st.bytes, kEntry);
  EXPECT_EQ(cache.get(5)->data(), filled(16, 2.0f).data());
}

TEST(EmbeddingCache, GetOrComputeComputesOnce) {
  EmbeddingCache cache(1 << 20, 2);
  int computed = 0;
  const auto compute = [&] {
    ++computed;
    return filled(16, 7.0f);
  };
  const Tensor a = cache.get_or_compute(42, compute);
  const Tensor b = cache.get_or_compute(42, compute);
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(a.data(), b.data());
}

TEST(EmbeddingCache, ShardHammerOnThreadPoolStaysConsistent) {
  EmbeddingCache cache(1 << 20, 8);
  EXPECT_EQ(cache.shard_count(), 8u);
  ThreadPool pool(4);
  constexpr std::size_t kOps = 4000;
  constexpr std::uint64_t kKeys = 64;
  std::vector<int> bad(kOps, 0);
  pool.parallel_for(0, kOps, [&](std::size_t i) {
    const std::uint64_t key = (i * 2654435761u) % kKeys;
    const Tensor v = cache.get_or_compute(
        key, [&] { return filled(16, static_cast<float>(key)); });
    // Whoever computed it, the value must always match the key.
    if (v.data() != filled(16, static_cast<float>(key)).data()) bad[i] = 1;
  });
  for (std::size_t i = 0; i < kOps; ++i) {
    ASSERT_EQ(bad[i], 0) << "op " << i << " saw a value from a foreign key";
  }
  const auto st = cache.stats();
  EXPECT_EQ(st.hits + st.misses, kOps);
  EXPECT_GE(st.hits, kOps - 2 * kKeys);  // a few racing double-computes OK
  EXPECT_EQ(st.entries, kKeys);
  EXPECT_EQ(st.evictions, 0u);
}

TEST(EmbeddingCache, CanonicalRtlIgnoresFormattingOnly) {
  const std::string a = "module m(input x);\n  // a comment\n  wire  w;\n"
                        "/* block\n comment */ endmodule\n";
  const std::string b = "module m(input x); wire w; endmodule";
  EXPECT_EQ(serve::canonical_rtl(a), serve::canonical_rtl(b));
  EXPECT_EQ(serve::rtl_key(1, a), serve::rtl_key(1, b));
  EXPECT_NE(serve::rtl_key(1, a), serve::rtl_key(2, a))
      << "different sessions must never share a key";
  EXPECT_NE(serve::rtl_key(1, "module m; endmodule"),
            serve::rtl_key(1, "module n; endmodule"));
}

// ---------------------------------------------------------------------------
// shared tiny session (built once; labeling + encoder fine-tune is the
// expensive part, the model itself keeps its deterministic fresh init)

struct ServeWorld {
  core::WorkflowConfig cfg;
  std::vector<std::shared_ptr<const data::LabeledCircuit>> lcs;
  std::shared_ptr<const serve::MossSession> session;
  std::vector<std::shared_ptr<const core::CircuitBatch>> batches;
};

const ServeWorld& world() {
  static const ServeWorld* w = [] {
    auto* sw = new ServeWorld();
    sw->cfg.model.hidden = 12;
    sw->cfg.model.rounds = 1;
    sw->cfg.dataset.sim_cycles = 200;
    sw->cfg.encoder = {1024, 12, 5};
    sw->cfg.fine_tune.epochs = 1;
    sw->cfg.fine_tune.max_pairs_per_epoch = 4000;
    const auto& lib = cell::standard_library();
    const std::vector<data::DesignSpec> specs{{"alu", 1, 21, "srv_alu"},
                                              {"crc", 1, 22, "srv_crc"},
                                              {"arbiter", 1, 23, "srv_arb"}};
    std::vector<std::string> corpus;
    for (const auto& spec : specs) {
      sw->lcs.push_back(std::make_shared<data::LabeledCircuit>(
          data::label_circuit(spec, lib, sw->cfg.dataset)));
      corpus.push_back(sw->lcs.back()->module_text);
    }
    sw->session = serve::MossSession::load(sw->cfg, corpus, /*ckpt_path=*/"");
    for (const auto& lc : sw->lcs) {
      sw->batches.push_back(
          std::make_shared<core::CircuitBatch>(sw->session->build(*lc)));
    }
    return sw;
  }();
  return *w;
}

// ---------------------------------------------------------------------------
// bit-identity: engine responses (cold and warm cache) == direct model calls

TEST(ServeEngine, AllFourKindsBitIdenticalColdAndWarm) {
  const ServeWorld& w = world();
  ModelRegistry reg;
  reg.install("default", w.session);
  EmbeddingCache cache(8u << 20);
  InferenceEngine eng(reg, &cache, {});
  eng.register_pool("pool", w.batches);
  const core::MossModel& model = w.session->model();

  for (int pass = 0; pass < 2; ++pass) {  // pass 0: cold cache, 1: warm
    SCOPED_TRACE(pass == 0 ? "cold" : "warm");
    for (std::size_t i = 0; i < w.lcs.size(); ++i) {
      SCOPED_TRACE(w.batches[i]->name);
      const core::CircuitBatch& b = *w.batches[i];
      const Tensor h = model.node_embeddings(b);

      // ATP
      {
        Request rq;
        rq.kind = RequestKind::kAtp;
        rq.batch = w.batches[i];
        const Response r = eng.call(rq);
        const Tensor flop = model.predict_arrival(b, h, b.flop_rows);
        ASSERT_EQ(r.values.size(), b.flop_rows.size());
        for (std::size_t k = 0; k < r.values.size(); ++k) {
          EXPECT_EQ(r.values[k], static_cast<double>(flop.at(k, 0)) *
                                     core::kArrivalScale);
        }
      }

      // TRP + PP
      {
        Request rq;
        rq.kind = RequestKind::kTrpPp;
        rq.circuit = w.lcs[i];
        rq.batch = w.batches[i];
        const Response r = eng.call(rq);
        const core::LocalPredictions pred = model.predict_local(b, h);
        ASSERT_EQ(r.values.size(), b.cell_rows.size());
        std::vector<double> rates(w.lcs[i]->netlist.num_nodes(), 0.0);
        for (std::size_t k = 0; k < r.values.size(); ++k) {
          const double t = static_cast<double>(pred.toggle.at(k, 0));
          EXPECT_EQ(r.values[k], t);
          rates[static_cast<std::size_t>(b.cell_rows[k])] = t;
        }
        EXPECT_EQ(r.power_uw,
                  power::analyze_power(w.lcs[i]->netlist, rates).total_uw);
      }

      // EMBED
      {
        Request rq;
        rq.kind = RequestKind::kEmbed;
        rq.batch = w.batches[i];
        const Response r = eng.call(rq);
        EXPECT_EQ(r.embedding, model.netlist_embedding(b, h).data());
        EXPECT_EQ(r.rtl_embedding,
                  model.rtl_embedding(b.module_text).data());
      }

      // FEP-rank
      {
        Request rq;
        rq.kind = RequestKind::kFepRank;
        rq.rtl_text = w.lcs[i]->module_text;
        rq.pool = "pool";
        const Response r = eng.call(rq);
        ASSERT_EQ(r.ranking.size(), w.batches.size());
        const Tensor r_e = model.rtl_embedding(w.lcs[i]->module_text);
        for (const auto& entry : r.ranking) {
          const core::CircuitBatch& mb = *w.batches[entry.index];
          const Tensor n_e =
              model.netlist_embedding(mb, model.node_embeddings(mb));
          EXPECT_EQ(entry.score, model.pair_score(r_e, n_e));
          EXPECT_EQ(entry.name, mb.name);
        }
      }
    }
  }
  const serve::CacheStats st = cache.stats();
  EXPECT_GT(st.hits, 0u) << "warm pass should have hit the cache";
}

TEST(ServeEngine, EngineWithoutCacheMatchesEngineWithCache) {
  const ServeWorld& w = world();
  ModelRegistry reg;
  reg.install("default", w.session);
  EmbeddingCache cache(8u << 20);
  InferenceEngine cached(reg, &cache, {});
  InferenceEngine direct(reg, /*cache=*/nullptr, {});
  Request rq;
  rq.kind = RequestKind::kEmbed;
  rq.batch = w.batches[0];
  const Response a = cached.call(rq);  // populates cache
  const Response b = cached.call(rq);  // served from cache
  const Response c = direct.call(rq);  // compute-always
  EXPECT_EQ(a.embedding, c.embedding);
  EXPECT_EQ(b.embedding, c.embedding);
  EXPECT_EQ(a.rtl_embedding, c.rtl_embedding);
  EXPECT_EQ(b.rtl_embedding, c.rtl_embedding);
}

TEST(ServeEngine, PlanRequestsMatchBatchRequestsBitIdentically) {
  // A compiled plan is served through the batch it stores: round-trip it
  // through the MOSSPLN1 blob, hand plan::to_batch's result over as
  // req.batch, and the responses must equal the direct batch's bit for bit.
  const ServeWorld& w = world();
  ModelRegistry reg;
  reg.install("default", w.session);
  EmbeddingCache cache(8u << 20);
  InferenceEngine eng(reg, &cache, {});

  for (std::size_t i = 0; i < w.lcs.size(); ++i) {
    SCOPED_TRACE(w.batches[i]->name);
    const plan::ExecutionPlan pl = plan::deserialize(
        plan::serialize(plan::compile(w.lcs[i]->netlist, *w.batches[i])),
        ErrorContext{});
    const auto stored = std::make_shared<core::CircuitBatch>(plan::to_batch(pl));
    EXPECT_EQ(core::content_hash(*stored), core::content_hash(*w.batches[i]));

    Request via_batch;
    via_batch.kind = RequestKind::kEmbed;
    via_batch.batch = w.batches[i];
    const Response rb = eng.call(via_batch);

    // Fresh cache so the plan request recomputes its forward rather than
    // hitting the entry just stored.
    cache.clear();

    Request via_plan;
    via_plan.kind = RequestKind::kEmbed;
    via_plan.batch = stored;
    const Response rp = eng.call(via_plan);
    EXPECT_EQ(rp.embedding, rb.embedding);
    EXPECT_EQ(rp.rtl_embedding, rb.rtl_embedding);
    EXPECT_FALSE(rp.degraded);

    Request atp_batch;
    atp_batch.kind = RequestKind::kAtp;
    atp_batch.batch = w.batches[i];
    const Response ab = eng.call(atp_batch);
    cache.clear();
    Request atp_plan;
    atp_plan.kind = RequestKind::kAtp;
    atp_plan.batch = stored;
    const Response ap = eng.call(atp_plan);
    EXPECT_EQ(ap.values, ab.values);
  }
}

// ---------------------------------------------------------------------------
// typed overload behavior

TEST(ServeEngine, QueueFullRejectsWithTypedError) {
  const ServeWorld& w = world();
  ModelRegistry reg;
  reg.install("default", w.session);
  serve::EngineConfig ec;
  ec.max_batch = 8;        // a lone request waits out max_delay...
  ec.max_delay_ms = 1000;  // ...so the queue stays occupied while we fill it
  ec.queue_capacity = 2;
  InferenceEngine eng(reg, nullptr, ec);
  Request rq;
  rq.kind = RequestKind::kEmbed;
  rq.batch = w.batches[0];
  std::future<Response> f1 = eng.submit(rq);
  std::future<Response> f2 = eng.submit(rq);
  // At full utilization a low-priority EMBED is shed by admission control
  // before it can reach the hard capacity bound...
  try {
    eng.submit(rq);
    FAIL() << "third submit should be shed from the full capacity-2 queue";
  } catch (const ContextError& e) {
    EXPECT_EQ(e.context_value("reason"), "shed") << e.what();
    EXPECT_EQ(error_class(e), ErrorClass::kTransient);
  }
  // ...while a high-priority ATP bypasses shedding and hits queue_full.
  Request atp;
  atp.kind = RequestKind::kAtp;
  atp.batch = w.batches[0];
  try {
    eng.submit(atp);
    FAIL() << "high-priority submit should overflow the capacity-2 queue";
  } catch (const ContextError& e) {
    EXPECT_EQ(e.context_value("reason"), "queue_full") << e.what();
    EXPECT_EQ(e.context_value("capacity"), "2") << e.what();
  }
  eng.stop();  // drains: the two queued requests still get served
  EXPECT_FALSE(f1.get().embedding.empty());
  EXPECT_FALSE(f2.get().embedding.empty());
  EXPECT_EQ(eng.metrics().snapshot().rejected, 1u);
  EXPECT_EQ(eng.metrics().snapshot().shed, 1u);
  try {
    eng.submit(rq);
    FAIL() << "submit after stop() should be rejected";
  } catch (const ContextError& e) {
    EXPECT_EQ(e.context_value("reason"), "stopped") << e.what();
  }
}

TEST(ServeEngine, ExpiredDeadlineFailsTypedInsteadOfServing) {
  const ServeWorld& w = world();
  ModelRegistry reg;
  reg.install("default", w.session);
  serve::EngineConfig ec;
  ec.max_batch = 8;
  ec.max_delay_ms = 120;  // lone request sits in the queue for 120ms
  InferenceEngine eng(reg, nullptr, ec);
  Request rq;
  rq.kind = RequestKind::kEmbed;
  rq.batch = w.batches[0];
  rq.deadline_ms = 10;  // expires long before the batch window closes
  try {
    eng.call(rq);
    FAIL() << "expired request should not be served";
  } catch (const ContextError& e) {
    EXPECT_EQ(e.context_value("reason"), "deadline_expired") << e.what();
    EXPECT_FALSE(e.transient())
        << "an expired deadline must not be auto-retried";
  }
  EXPECT_EQ(eng.metrics().snapshot().deadline_expired, 1u);
}

TEST(ServeEngine, BadRequestsGetTypedErrors) {
  const ServeWorld& w = world();
  ModelRegistry reg;
  reg.install("default", w.session);
  InferenceEngine eng(reg, nullptr, {});

  Request no_circuit;
  no_circuit.kind = RequestKind::kAtp;
  try {
    eng.call(no_circuit);
    FAIL() << "ATP without circuit/batch served";
  } catch (const ContextError& e) {
    EXPECT_EQ(e.context_value("reason"), "bad_request") << e.what();
  }

  Request bad_pool;
  bad_pool.kind = RequestKind::kFepRank;
  bad_pool.rtl_text = "module m; endmodule";
  bad_pool.pool = "nope";
  try {
    eng.call(bad_pool);
    FAIL() << "unknown pool served";
  } catch (const ContextError& e) {
    EXPECT_EQ(e.context_value("reason"), "unknown_pool") << e.what();
    EXPECT_EQ(e.context_value("pool"), "nope") << e.what();
  }

  Request bad_model;
  bad_model.kind = RequestKind::kEmbed;
  bad_model.batch = w.batches[0];
  bad_model.model = "missing";
  EXPECT_THROW(eng.call(bad_model), ContextError);
}

// ---------------------------------------------------------------------------
// fault injection: a poisoned request fails alone, the queue keeps serving

TEST(ServeFault, PoisonedDispatchFailsExactlyOneRequest) {
  const ServeWorld& w = world();
  FaultGuard guard;
  ModelRegistry reg;
  reg.install("default", w.session);
  EmbeddingCache cache(8u << 20);
  InferenceEngine eng(reg, &cache, {});

  testing::arm_fault("serve.engine.dispatch");
  std::vector<std::future<Response>> futs;
  Request rq;
  rq.kind = RequestKind::kEmbed;
  for (std::size_t i = 0; i < 4; ++i) {
    rq.batch = w.batches[i % w.batches.size()];
    futs.push_back(eng.submit(rq));
  }
  int injected = 0, ok = 0;
  for (auto& f : futs) {
    try {
      f.get();
      ++ok;
    } catch (const testing::InjectedFault&) {
      ++injected;
    }
  }
  EXPECT_EQ(injected, 1) << "exactly the poisoned request must fail";
  EXPECT_EQ(ok, 3) << "the rest of the batch must be served";

  // The engine is not wedged: later requests succeed.
  rq.batch = w.batches[0];
  EXPECT_FALSE(eng.call(rq).embedding.empty());
  EXPECT_EQ(eng.queue_depth(), 0u);
}

TEST(ServeFault, CacheInsertFaultPoisonsOnlyThatRequest) {
  const ServeWorld& w = world();
  FaultGuard guard;
  ModelRegistry reg;
  reg.install("default", w.session);
  EmbeddingCache cache(8u << 20);
  InferenceEngine eng(reg, &cache, {});
  Request rq;
  rq.kind = RequestKind::kEmbed;
  rq.batch = w.batches[0];

  testing::arm_fault("serve.cache.insert");
  EXPECT_THROW(eng.call(rq), testing::InjectedFault);
  testing::disarm_all_faults();

  // Same request now serves and matches the direct computation.
  const Response r = eng.call(rq);
  const core::MossModel& model = w.session->model();
  const core::CircuitBatch& b = *w.batches[0];
  EXPECT_EQ(r.embedding,
            model.netlist_embedding(b, model.node_embeddings(b)).data());
}

// ---------------------------------------------------------------------------
// registry hot-swap

TEST(ServeRegistry, HotSwapRoutesNewRequestsAndBumpsVersion) {
  const ServeWorld& w = world();
  ModelRegistry reg;
  EXPECT_EQ(reg.install("default", w.session), 1u);

  std::vector<std::string> corpus;
  for (const auto& lc : w.lcs) corpus.push_back(lc->module_text);
  const auto replacement = serve::MossSession::load(w.cfg, corpus, "");
  EXPECT_NE(replacement->uid(), w.session->uid())
      << "every session needs a process-unique uid";

  EmbeddingCache cache(8u << 20);
  InferenceEngine eng(reg, &cache, {});
  Request rq;
  rq.kind = RequestKind::kEmbed;
  rq.batch = w.batches[0];
  EXPECT_EQ(eng.call(rq).session_uid, w.session->uid());

  EXPECT_EQ(reg.install("default", replacement), 2u);
  EXPECT_EQ(eng.call(rq).session_uid, replacement->uid());

  const auto infos = reg.list();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].name, "default");
  EXPECT_EQ(infos[0].version, 2u);
  EXPECT_EQ(infos[0].uid, replacement->uid());

  EXPECT_TRUE(reg.remove("default"));
  EXPECT_FALSE(reg.remove("default"));
  try {
    reg.get("default");
    FAIL() << "removed model still served";
  } catch (const ContextError& e) {
    EXPECT_EQ(e.context_value("model"), "default") << e.what();
  }
}

// ---------------------------------------------------------------------------
// metrics

TEST(ServeMetrics, HistogramQuantilesAndDumps) {
  serve::LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.record(100.0);  // ~all in one bucket
  h.record(100000.0);
  EXPECT_EQ(h.count(), 101u);
  EXPECT_LE(h.quantile_us(0.5), 256.0);
  EXPECT_GE(h.quantile_us(0.999), 65536.0);
  EXPECT_GT(h.mean_us(), 0.0);
  // Interpolated, not the bucket upper edge: 100 us lands in [64,128), so
  // the median must stay inside that bucket instead of reporting 128.
  EXPECT_GE(h.quantile_us(0.5), 64.0);
  EXPECT_LT(h.quantile_us(0.5), 128.0);
  // The unbounded last bucket must never fabricate a latency beyond the
  // observed maximum.
  EXPECT_LE(h.quantile_us(0.999), h.max_us());
  EXPECT_LE(h.quantile_us(1.0), h.max_us());

  serve::LatencyHistogram tail;
  tail.record(1.0);
  tail.record(5.0e9);  // ~83 min: beyond the last finite bucket edge
  // Pre-fix this reported the last bucket's power-of-two edge (~2^32 us)
  // regardless of what was observed; now it is clamped to max_us.
  EXPECT_LE(tail.quantile_us(0.99), tail.max_us());

  serve::ServeMetrics m;
  m.record(RequestKind::kAtp, 1500.0, true);
  m.record(RequestKind::kFepRank, 900.0, false);
  m.record_rejected();
  m.record_batch(2);
  m.set_cache_counters(3, 4, 1, 4096, 2, 5);
  const serve::MetricsSnapshot snap = m.snapshot();
  EXPECT_EQ(snap.total_ok, 1u);
  EXPECT_EQ(snap.total_errors, 1u);
  EXPECT_EQ(snap.rejected, 1u);
  EXPECT_EQ(snap.cache_hits, 3u);
  EXPECT_EQ(snap.cache_oversize_rejections, 5u);

  const std::string text = m.text();
  EXPECT_NE(text.find("endpoint"), std::string::npos) << text;
  EXPECT_NE(text.find("atp"), std::string::npos) << text;
  EXPECT_NE(text.find("cache:"), std::string::npos) << text;
  EXPECT_NE(text.find("5 oversize"), std::string::npos) << text;
  const std::string json = m.json();
  EXPECT_EQ(json.front(), '{') << json;
  EXPECT_NE(json.find("\"fep_rank\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"cache\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"oversize_rejections\":5"), std::string::npos) << json;
}

TEST(ServeMetrics, EngineCountsRequestsPerEndpoint) {
  const ServeWorld& w = world();
  ModelRegistry reg;
  reg.install("default", w.session);
  EmbeddingCache cache(8u << 20);
  InferenceEngine eng(reg, &cache, {});
  Request rq;
  rq.kind = RequestKind::kEmbed;
  rq.batch = w.batches[0];
  eng.call(rq);
  eng.call(rq);
  const std::string json = eng.metrics_json();
  EXPECT_NE(json.find("\"embed\""), std::string::npos) << json;
  const serve::MetricsSnapshot snap = eng.metrics().snapshot();
  EXPECT_EQ(snap.total_ok, 2u);
  EXPECT_EQ(
      snap.endpoints[static_cast<std::size_t>(RequestKind::kEmbed)].requests,
      2u);
}

// ---------------------------------------------------------------------------
// VERIFY: the SAT-oracle latency class. No model session is ever touched —
// every test below runs against an empty registry on purpose.

std::shared_ptr<const data::LabeledCircuit> mutant_of(
    const data::LabeledCircuit& golden, std::uint64_t seed) {
  Rng rng(seed);
  const auto muts = data::sample_mutations(golden.netlist, 1, rng);
  auto lc = std::make_shared<data::LabeledCircuit>(golden);
  lc->netlist = data::apply_mutation(golden.netlist, muts.at(0), "__mut");
  return lc;
}

TEST(ServeVerify, EquivalentAndInequivalentEndToEnd) {
  const ServeWorld& w = world();
  ModelRegistry reg;
  InferenceEngine eng(reg, nullptr, {});

  Request rq;
  rq.kind = RequestKind::kVerify;
  rq.circuit = w.lcs[0];
  rq.circuit_b = w.lcs[0];
  const Response same = eng.call(rq);
  EXPECT_EQ(same.kind, RequestKind::kVerify);
  EXPECT_EQ(same.verdict, "EQUIVALENT");
  EXPECT_TRUE(same.verify_cex.empty());
  EXPECT_FALSE(same.verify_detail.empty());

  // A seeded mutant must be PROVEN different, and the proof must carry a
  // rendered counterexample (replayed through aig_sim inside the oracle).
  bool proven_inequivalent = false;
  for (std::uint64_t seed = 1; seed <= 8 && !proven_inequivalent; ++seed) {
    rq.circuit_b = mutant_of(*w.lcs[0], seed);
    const Response r = eng.call(rq);
    if (r.verdict != "NOT_EQUIVALENT") continue;  // mutation hit a don't-care
    proven_inequivalent = true;
    EXPECT_FALSE(r.verify_cex.empty()) << r.verify_detail;
    EXPECT_NE(r.verify_detail.find("counterexample"), std::string::npos)
        << r.verify_detail;
  }
  EXPECT_TRUE(proven_inequivalent)
      << "no mutant of srv_alu was proven inequivalent in 8 seeds";

  const serve::MetricsSnapshot snap = eng.metrics().snapshot();
  EXPECT_GE(
      snap.endpoints[static_cast<std::size_t>(RequestKind::kVerify)].requests,
      2u);
  EXPECT_NE(eng.metrics_json().find("\"verify\""), std::string::npos);
  EXPECT_NE(eng.metrics().text().find("verify"), std::string::npos);
}

TEST(ServeVerify, MissingOperandIsTypedBadRequest) {
  const ServeWorld& w = world();
  ModelRegistry reg;
  InferenceEngine eng(reg, nullptr, {});
  Request rq;
  rq.kind = RequestKind::kVerify;
  rq.circuit = w.lcs[0];  // circuit_b deliberately absent
  try {
    eng.call(rq);
    FAIL() << "VERIFY without a second circuit must be a typed bad_request";
  } catch (const ContextError& e) {
    EXPECT_EQ(e.context_value("reason"), "bad_request") << e.what();
  }
}

TEST(ServeVerify, ConflictBudgetExhaustionIsPermanentVerifyTimeout) {
  const ServeWorld& w = world();
  // Pick a pair the solver provably cannot settle within ONE conflict.
  // The oracle is deterministic, so probing it directly with the same
  // seed/budget/frames the engine will use predicts the engine exactly.
  std::shared_ptr<const data::LabeledCircuit> golden, hard;
  for (std::size_t c = 1; c < w.lcs.size() && !hard; ++c) {
    for (std::uint64_t seed = 1; seed <= 8 && !hard; ++seed) {
      auto cand = mutant_of(*w.lcs[c], seed);
      sat::OracleConfig oc;
      oc.conflict_budget = 1;
      const sat::EquivOracle probe(oc);
      const sat::OracleResult res =
          probe.check(w.lcs[c]->netlist, cand->netlist);
      if (res.verdict == sat::Verdict::kUnknown &&
          res.unknown_reason == sat::UnknownReason::kConflictBudget) {
        hard = std::move(cand);
        golden = w.lcs[c];
      }
    }
  }
  ASSERT_TRUE(hard) << "no probe pair exhausted a 1-conflict budget";

  ModelRegistry reg;
  serve::EngineConfig ec;
  ec.verify_conflict_limit = 1;  // also clamps any client-supplied budget
  InferenceEngine eng(reg, nullptr, ec);
  Request rq;
  rq.kind = RequestKind::kVerify;
  rq.circuit = golden;
  rq.circuit_b = hard;
  rq.verify_conflict_budget = 999999;  // clamped down to the engine limit
  try {
    eng.call(rq);
    FAIL() << "1-conflict budget must exhaust into a typed verify_timeout";
  } catch (const ContextError& e) {
    EXPECT_EQ(e.context_value("reason"), "verify_timeout") << e.what();
    // Deterministic search: retrying with the same budget cannot succeed,
    // so the failure class is permanent, unlike a deadline or a shed.
    EXPECT_FALSE(e.transient()) << e.what();
  }
  EXPECT_EQ(eng.metrics().snapshot().verify_timeouts, 1u);
}

TEST(ServeVerify, DepthBoundIsTypedUnknownResponseNotAnError) {
  const ServeWorld& w = world();
  ModelRegistry reg;
  serve::EngineConfig ec;
  ec.verify_max_frames = 0;  // BMC disabled: sequential cut-SAT -> UNKNOWN
  InferenceEngine eng(reg, nullptr, ec);
  bool exercised = false;
  for (std::uint64_t seed = 1; seed <= 8 && !exercised; ++seed) {
    Request rq;
    rq.kind = RequestKind::kVerify;
    rq.circuit = w.lcs[1];  // srv_crc is sequential
    rq.circuit_b = mutant_of(*w.lcs[1], seed);
    const Response r = eng.call(rq);  // must NOT throw: UNKNOWN is an answer
    if (r.verdict != "UNKNOWN") continue;  // cut proved this mutant outright
    exercised = true;
    EXPECT_EQ(r.verify_frames, 0) << r.verify_detail;
    EXPECT_TRUE(r.verify_cex.empty());
    EXPECT_NE(r.verify_detail.find("depth"), std::string::npos)
        << r.verify_detail;
  }
  EXPECT_TRUE(exercised)
      << "no crc mutant reached the depth bound in 8 seeds";
}

TEST(ServeVerify, InflightConflictBudgetCapShedsAndReleases) {
  const ServeWorld& w = world();
  Request rq;
  rq.kind = RequestKind::kVerify;
  rq.circuit = w.lcs[0];
  rq.circuit_b = w.lcs[0];

  // Cap below one request's budget: admission must refuse it up front with
  // the VERIFY-specific transient error (counted as verify_shed), without
  // ever reaching the solver.
  {
    ModelRegistry reg;
    serve::EngineConfig ec;
    ec.verify_conflict_limit = 50000;
    ec.verify_inflight_budget = 10;
    InferenceEngine eng(reg, nullptr, ec);
    try {
      eng.submit(rq);
      FAIL() << "VERIFY above the in-flight conflict cap must be refused";
    } catch (const ContextError& e) {
      EXPECT_EQ(e.context_value("reason"), "verify_capacity") << e.what();
      EXPECT_EQ(error_class(e), ErrorClass::kTransient);
    }
    EXPECT_EQ(eng.metrics().snapshot().verify_shed, 1u);
  }

  // Cap exactly one request wide: back-to-back calls only both succeed if
  // the reservation is released when a request settles.
  {
    ModelRegistry reg;
    serve::EngineConfig ec;
    ec.verify_inflight_budget = ec.verify_conflict_limit;
    InferenceEngine eng(reg, nullptr, ec);
    EXPECT_EQ(eng.call(rq).verdict, "EQUIVALENT");
    EXPECT_EQ(eng.call(rq).verdict, "EQUIVALENT");
    EXPECT_EQ(eng.metrics().snapshot().verify_shed, 0u);
  }
}

TEST(ServeVerify, ProtocolLineRoundTrips) {
  const ServeWorld& w = world();
  ModelRegistry reg;
  InferenceEngine eng(reg, nullptr, {});
  const auto mut = mutant_of(*w.lcs[0], 1);
  serve::ProtocolConfig pcfg;
  pcfg.load_design = [&](const std::string& name)
      -> std::shared_ptr<const data::LabeledCircuit> {
    if (name == "golden") return w.lcs[0];
    if (name == "mutant") return mut;
    return nullptr;
  };
  serve::ProtocolHandler handler(eng, std::move(pcfg));

  const std::string same = handler.handle_line("VERIFY golden golden");
  EXPECT_EQ(same.rfind("OK VERIFY EQUIVALENT", 0), 0u) << same;
  EXPECT_NE(same.find("conflicts="), std::string::npos) << same;
  EXPECT_NE(same.find("frames="), std::string::npos) << same;

  const std::string one_operand = handler.handle_line("VERIFY golden");
  EXPECT_EQ(one_operand.rfind("ERR bad_request", 0), 0u) << one_operand;
  const std::string unknown = handler.handle_line("VERIFY golden nosuch");
  EXPECT_EQ(unknown.rfind("ERR unknown_design", 0), 0u) << unknown;

  const std::string help = handler.handle_line("HELP");
  EXPECT_NE(help.find("VERIFY"), std::string::npos);
}

// ---------------------------------------------------------------------------
// cross-request fused batching: one stacked propagation per (kind, model)
// group per dispatch window, bit-identical to the sequential path

/// Submit `reqs` back-to-back (they land in one dispatch window when the
/// engine's max_batch >= reqs.size()) and wait for every response.
/// Failures propagate to the caller via futures' exceptions.
std::vector<Response> run_window(InferenceEngine& eng,
                                 const std::vector<Request>& reqs) {
  std::vector<std::future<Response>> futs;
  futs.reserve(reqs.size());
  for (const Request& r : reqs) futs.push_back(eng.submit(r));
  std::vector<Response> out;
  out.reserve(futs.size());
  for (auto& f : futs) out.push_back(f.get());
  return out;
}

void expect_bit_identical(const Response& fused, const Response& seq) {
  EXPECT_EQ(fused.kind, seq.kind);
  EXPECT_EQ(fused.values, seq.values);
  EXPECT_EQ(fused.power_uw, seq.power_uw);
  EXPECT_EQ(fused.embedding, seq.embedding);
  EXPECT_EQ(fused.rtl_embedding, seq.rtl_embedding);
  ASSERT_EQ(fused.ranking.size(), seq.ranking.size());
  for (std::size_t i = 0; i < fused.ranking.size(); ++i) {
    EXPECT_EQ(fused.ranking[i].index, seq.ranking[i].index);
    EXPECT_EQ(fused.ranking[i].name, seq.ranking[i].name);
    EXPECT_EQ(fused.ranking[i].score, seq.ranking[i].score);
  }
  EXPECT_FALSE(fused.degraded);
  EXPECT_EQ(fused.degraded, seq.degraded);
}

/// A mixed-kind window covering every model-backed kind and all three
/// circuits: one ATP/TRP+PP/EMBED per circuit plus one FEP-rank per query
/// text — 12 requests, four fusable groups.
std::vector<Request> mixed_window(const ServeWorld& w) {
  std::vector<Request> reqs;
  for (std::size_t i = 0; i < w.lcs.size(); ++i) {
    Request atp;
    atp.kind = RequestKind::kAtp;
    atp.batch = w.batches[i];
    reqs.push_back(atp);
    Request trp;
    trp.kind = RequestKind::kTrpPp;
    trp.circuit = w.lcs[i];
    trp.batch = w.batches[i];
    reqs.push_back(trp);
    Request emb;
    emb.kind = RequestKind::kEmbed;
    emb.batch = w.batches[i];
    reqs.push_back(emb);
    Request rank;
    rank.kind = RequestKind::kFepRank;
    rank.rtl_text = w.lcs[i]->module_text;
    rank.pool = "pool";
    reqs.push_back(rank);
  }
  return reqs;
}

TEST(ServeFused, FusedWindowBitIdenticalToSequentialAllFourKinds) {
  const ServeWorld& w = world();
  ModelRegistry reg;
  reg.install("default", w.session);
  const std::vector<Request> reqs = mixed_window(w);

  serve::EngineConfig fused_cfg;
  fused_cfg.fused_batching = true;
  fused_cfg.max_batch = reqs.size();
  fused_cfg.max_delay_ms = 50;  // window closes when all requests are queued
  serve::EngineConfig seq_cfg = fused_cfg;
  seq_cfg.fused_batching = false;

  EmbeddingCache fused_cache(8u << 20);
  EmbeddingCache seq_cache(8u << 20);
  InferenceEngine fused_eng(reg, &fused_cache, fused_cfg);
  InferenceEngine seq_eng(reg, &seq_cache, seq_cfg);
  fused_eng.register_pool("pool", w.batches);
  seq_eng.register_pool("pool", w.batches);

  for (int pass = 0; pass < 2; ++pass) {  // pass 0: cold caches, 1: warm
    SCOPED_TRACE(pass == 0 ? "cold" : "warm");
    const std::vector<Response> fused = run_window(fused_eng, reqs);
    const std::vector<Response> seq = run_window(seq_eng, reqs);
    ASSERT_EQ(fused.size(), seq.size());
    for (std::size_t i = 0; i < fused.size(); ++i) {
      SCOPED_TRACE("request " + std::to_string(i));
      expect_bit_identical(fused[i], seq[i]);
    }
  }

  const serve::MetricsSnapshot snap = fused_eng.metrics().snapshot();
  EXPECT_GT(snap.fused_batches, 0u) << "cold pass must stack a propagation";
  EXPECT_GT(snap.fused_rows, 0u);
  EXPECT_GT(snap.fused_requests, 0u);
  EXPECT_EQ(snap.fused_retries, 0u) << "no member should have gone solo";
  EXPECT_EQ(seq_eng.metrics().snapshot().fused_batches, 0u)
      << "the sequential engine must never stack";
}

TEST(ServeFused, AdversarialRowCountsSingleMaxBatchAndDuplicates) {
  const ServeWorld& w = world();
  ModelRegistry reg;
  reg.install("default", w.session);

  const auto run_pair = [&](const std::vector<Request>& reqs) {
    serve::EngineConfig fc;
    fc.fused_batching = true;
    fc.max_batch = std::max<std::size_t>(reqs.size(), 1);
    fc.max_delay_ms = 50;
    serve::EngineConfig sc = fc;
    sc.fused_batching = false;
    EmbeddingCache ca(8u << 20), cb(8u << 20);
    InferenceEngine fe(reg, &ca, fc), se(reg, &cb, sc);
    fe.register_pool("pool", w.batches);
    se.register_pool("pool", w.batches);
    const std::vector<Response> fr = run_window(fe, reqs);
    const std::vector<Response> sr = run_window(se, reqs);
    ASSERT_EQ(fr.size(), sr.size());
    for (std::size_t i = 0; i < fr.size(); ++i) {
      SCOPED_TRACE("request " + std::to_string(i));
      expect_bit_identical(fr[i], sr[i]);
    }
  };

  {
    SCOPED_TRACE("window of 1 (singleton demotes to the solo path)");
    Request one;
    one.kind = RequestKind::kEmbed;
    one.batch = w.batches[0];
    run_pair({one});
  }
  {
    SCOPED_TRACE("window of 1 FEP-rank (pool members still stack)");
    Request rank;
    rank.kind = RequestKind::kFepRank;
    rank.rtl_text = w.lcs[0]->module_text;
    rank.pool = "pool";
    run_pair({rank});
  }
  {
    SCOPED_TRACE("max_batch window of one kind with duplicate circuits");
    std::vector<Request> reqs;
    for (std::size_t i = 0; i < 8; ++i) {
      Request atp;
      atp.kind = RequestKind::kAtp;
      atp.batch = w.batches[i % w.batches.size()];  // duplicates dedupe
      reqs.push_back(atp);
    }
    run_pair(reqs);
  }
  {
    SCOPED_TRACE("mixed kinds in one window");
    run_pair(mixed_window(w));
  }
}

TEST(ServeFused, KernelThreadCountsOneAndSevenBitIdentical) {
  const ServeWorld& w = world();
  ModelRegistry reg;
  reg.install("default", w.session);
  const std::size_t restore = tensor::kernels::threads();
  const std::vector<Request> reqs = mixed_window(w);

  serve::EngineConfig fc;
  fc.fused_batching = true;
  fc.max_batch = reqs.size();
  fc.max_delay_ms = 50;

  std::vector<std::vector<Response>> per_threads;
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}}) {
    tensor::kernels::set_threads(n);
    EmbeddingCache cache(8u << 20);
    InferenceEngine eng(reg, &cache, fc);
    eng.register_pool("pool", w.batches);
    per_threads.push_back(run_window(eng, reqs));
  }
  tensor::kernels::set_threads(restore);

  ASSERT_EQ(per_threads[0].size(), per_threads[1].size());
  for (std::size_t i = 0; i < per_threads[0].size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    expect_bit_identical(per_threads[0][i], per_threads[1][i]);
  }
}

TEST(ServeFused, DispatchFaultInsideFusedGroupFailsExactlyOneMember) {
  const ServeWorld& w = world();
  FaultGuard guard;
  ModelRegistry reg;
  reg.install("default", w.session);
  serve::EngineConfig ec;
  ec.fused_batching = true;
  ec.max_batch = 4;
  ec.max_delay_ms = 50;
  EmbeddingCache cache(8u << 20);
  InferenceEngine eng(reg, &cache, ec);

  testing::arm_fault("serve.engine.dispatch");
  std::vector<Request> reqs;
  for (std::size_t i = 0; i < 4; ++i) {
    Request rq;
    rq.kind = RequestKind::kEmbed;
    rq.batch = w.batches[i % w.batches.size()];
    reqs.push_back(rq);
  }
  std::vector<std::future<Response>> futs;
  for (const Request& r : reqs) futs.push_back(eng.submit(r));
  int injected = 0, ok = 0;
  for (auto& f : futs) {
    try {
      f.get();
      ++ok;
    } catch (const testing::InjectedFault&) {
      ++injected;
    }
  }
  EXPECT_EQ(injected, 1) << "exactly the poisoned member must fail";
  EXPECT_EQ(ok, 3) << "its batchmates must still be served fused";
  const serve::MetricsSnapshot snap = eng.metrics().snapshot();
  EXPECT_GE(snap.fused_requests, 3u);
  EXPECT_EQ(snap.fused_retries, 0u)
      << "a pre-check fault settles up front, not via solo retry";
}

TEST(ServeFused, ForwardFaultInFusedComputeRetriesEveryMemberSolo) {
  const ServeWorld& w = world();
  FaultGuard guard;
  ModelRegistry reg;
  reg.install("default", w.session);
  serve::EngineConfig ec;
  ec.fused_batching = true;
  ec.max_batch = 3;
  ec.max_delay_ms = 50;
  EmbeddingCache cache(8u << 20);
  InferenceEngine eng(reg, &cache, ec);

  // One-shot fault inside the *stacked* forward: the whole fused compute
  // throws, and every member must be retried solo (where the consumed
  // fault no longer fires) — one poisoned propagation never takes its
  // batchmates down.
  testing::arm_fault("serve.session.forward");
  std::vector<Request> reqs;
  for (std::size_t i = 0; i < 3; ++i) {
    Request rq;
    rq.kind = RequestKind::kEmbed;
    rq.batch = w.batches[i];
    reqs.push_back(rq);
  }
  const std::vector<Response> rs = run_window(eng, reqs);
  const core::MossModel& model = w.session->model();
  for (std::size_t i = 0; i < rs.size(); ++i) {
    SCOPED_TRACE(w.batches[i]->name);
    const core::CircuitBatch& b = *w.batches[i];
    EXPECT_EQ(rs[i].embedding,
              model.netlist_embedding(b, model.node_embeddings(b)).data());
  }
  const serve::MetricsSnapshot snap = eng.metrics().snapshot();
  EXPECT_EQ(snap.fused_retries, 3u)
      << "every member of the poisoned group must have gone solo";
  EXPECT_EQ(snap.total_errors, 0u);
}

TEST(ServeFused, MetricsExposeOccupancyHistogramInTextAndJson) {
  const ServeWorld& w = world();
  ModelRegistry reg;
  reg.install("default", w.session);
  serve::EngineConfig ec;
  ec.fused_batching = true;
  ec.max_batch = 3;
  ec.max_delay_ms = 50;
  EmbeddingCache cache(8u << 20);
  InferenceEngine eng(reg, &cache, ec);

  std::vector<Request> reqs;
  for (std::size_t i = 0; i < 3; ++i) {
    Request rq;
    rq.kind = RequestKind::kEmbed;
    rq.batch = w.batches[i];
    reqs.push_back(rq);
  }
  run_window(eng, reqs);

  const serve::MetricsSnapshot snap = eng.metrics().snapshot();
  ASSERT_GT(snap.fused_batches, 0u);
  EXPECT_GT(snap.fused_rows, 0u);
  EXPECT_EQ(snap.fused_requests, 3u);
  std::uint64_t occ_total = 0;
  for (const std::uint64_t c : snap.fused_occupancy) occ_total += c;
  EXPECT_EQ(occ_total, snap.fused_batches)
      << "every stacked propagation lands in exactly one occupancy bucket";
  // All three circuits fused into one propagation -> occupancy bucket 3.
  EXPECT_EQ(snap.fused_occupancy[2], 1u);

  const std::string text = eng.metrics_text();
  EXPECT_NE(text.find("fused:"), std::string::npos) << text;
  const std::string json = eng.metrics_json();
  EXPECT_NE(json.find("\"fused_batches\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"fused_rows\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"occupancy\":["), std::string::npos) << json;
}

TEST(ServeFused, RowCapChunksTheWindowWithoutChangingResults) {
  const ServeWorld& w = world();
  ModelRegistry reg;
  reg.install("default", w.session);
  serve::EngineConfig ec;
  ec.fused_batching = true;
  ec.max_batch = 3;
  ec.max_delay_ms = 50;
  ec.fused_max_rows = 1;  // every unit gets its own chunk (cap still packs
                          // at least one unit, or nothing would ever run)
  EmbeddingCache cache(8u << 20);
  InferenceEngine eng(reg, &cache, ec);

  std::vector<Request> reqs;
  for (std::size_t i = 0; i < 3; ++i) {
    Request rq;
    rq.kind = RequestKind::kEmbed;
    rq.batch = w.batches[i];
    reqs.push_back(rq);
  }
  const std::vector<Response> rs = run_window(eng, reqs);
  const core::MossModel& model = w.session->model();
  for (std::size_t i = 0; i < rs.size(); ++i) {
    SCOPED_TRACE(w.batches[i]->name);
    const core::CircuitBatch& b = *w.batches[i];
    EXPECT_EQ(rs[i].embedding,
              model.netlist_embedding(b, model.node_embeddings(b)).data());
  }
  const serve::MetricsSnapshot snap = eng.metrics().snapshot();
  EXPECT_EQ(snap.fused_batches, 3u) << "a 1-row cap must chunk per unit";
  EXPECT_EQ(snap.fused_occupancy[0], 3u);
}

TEST(ServeFused, QueueExpiredMembersFailTypedBeforeFusing) {
  const ServeWorld& w = world();
  ModelRegistry reg;
  reg.install("default", w.session);
  serve::EngineConfig ec;
  ec.fused_batching = true;
  ec.max_batch = 16;      // 8 submits never fill the window...
  ec.max_delay_ms = 80;   // ...so it holds for 80ms, past every deadline
  EmbeddingCache cache(8u << 20);
  InferenceEngine eng(reg, &cache, ec);
  eng.register_pool("pool", w.batches);

  std::vector<std::future<Response>> futs;
  for (std::size_t i = 0; i < 8; ++i) {
    Request rq;
    rq.kind = RequestKind::kFepRank;
    rq.rtl_text = w.lcs[i % w.lcs.size()]->module_text;
    rq.pool = "pool";
    rq.deadline_ms = 5;
    futs.push_back(eng.submit(rq));
  }
  for (auto& f : futs) {
    try {
      f.get();
      FAIL() << "request expired in the queue must not be served";
    } catch (const ContextError& e) {
      EXPECT_EQ(e.context_value("reason"), "deadline_expired") << e.what();
      EXPECT_EQ(e.context_value("stage"), "queue") << e.what();
      EXPECT_FALSE(e.transient()) << e.what();
    }
  }
  const serve::MetricsSnapshot snap = eng.metrics().snapshot();
  EXPECT_EQ(snap.deadline_expired, futs.size());
  EXPECT_EQ(snap.fused_batches, 0u)
      << "an all-expired group must never reach the stacked compute";
  // The engine is not wedged afterwards.
  Request probe;
  probe.kind = RequestKind::kEmbed;
  probe.batch = w.batches[0];
  EXPECT_FALSE(eng.call(probe).embedding.empty());
}

TEST(ServeFused, PostSplitDeadlineRecheckFailsTypedPerVictim) {
  const ServeWorld& w = world();
  ModelRegistry reg;
  reg.install("default", w.session);
  serve::EngineConfig ec;
  ec.fused_batching = true;
  ec.max_batch = 64;
  ec.max_delay_ms = 200;
  ec.queue_capacity = 256;
  ec.threads = 1;  // groups run one after another on a single worker
  EmbeddingCache cache(32u << 20);
  InferenceEngine eng(reg, &cache, ec);
  eng.register_pool("pool", w.batches);

  // One window: a large cold EMBED group (56 distinct RTL texts, each
  // forcing a fresh encoder forward at settle) dispatched FIRST (EMBED
  // outranks FEP-rank in the fused dispatch order), then the FEP-rank
  // group. The rank requests' queue pre-check compares against the
  // window-start timestamp, taken before the embed group's compute — it
  // passes. By the time the rank group has computed and split, the 1ms
  // deadline is long gone: the post-split re-check must fail each rank
  // victim typed (stage=dispatch), permanent, and never retried solo.
  std::vector<std::future<Response>> embeds;
  for (std::size_t i = 0; i < 56; ++i) {
    Request rq;
    rq.kind = RequestKind::kEmbed;
    rq.batch = w.batches[i % w.batches.size()];
    // Distinct non-comment prefix: canonical_rtl strips comments, so a
    // comment would collapse all 56 texts onto one cache key.
    rq.rtl_text = "wire q" + std::to_string(i) + ";\n" +
                  w.lcs[i % w.lcs.size()]->module_text;
    embeds.push_back(eng.submit(rq));
  }
  std::vector<std::future<Response>> ranks;
  for (std::size_t i = 0; i < 8; ++i) {
    Request rq;
    rq.kind = RequestKind::kFepRank;
    rq.rtl_text = w.lcs[i % w.lcs.size()]->module_text;
    rq.pool = "pool";
    rq.deadline_ms = 1;
    ranks.push_back(eng.submit(rq));
  }
  for (auto& f : embeds) EXPECT_FALSE(f.get().embedding.empty());
  std::size_t expired = 0;
  for (auto& f : ranks) {
    try {
      f.get();  // a rank that beat the clock is legal, just unexpected
    } catch (const ContextError& e) {
      EXPECT_EQ(e.context_value("reason"), "deadline_expired") << e.what();
      EXPECT_EQ(e.context_value("stage"), "dispatch") << e.what();
      EXPECT_FALSE(e.transient()) << e.what();
      ++expired;
    }
  }
  EXPECT_GE(expired, 1u) << "1ms deadlines behind a 56-request cold embed "
                            "group must hit the post-split re-check";
  const serve::MetricsSnapshot snap = eng.metrics().snapshot();
  EXPECT_EQ(snap.deadline_expired, expired);
  EXPECT_EQ(snap.fused_retries, 0u)
      << "post-split expiry is permanent: victims must not be retried solo";
}

}  // namespace
}  // namespace moss
