#include "serve/engine.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "core_util/error.hpp"
#include "core_util/fault.hpp"
#include "power/power.hpp"
#include "sat/oracle.hpp"
#include "serve/fused.hpp"

namespace moss::serve {

using Clock = std::chrono::steady_clock;
using tensor::Tensor;

namespace {

[[noreturn]] void fail_typed(const std::string& reason,
                             const std::string& msg,
                             std::vector<ContextError::Frame> extra = {},
                             ErrorClass cls = ErrorClass::kPermanent) {
  ErrorContext ctx;
  ctx.add("reason", reason);
  for (auto& f : extra) ctx.add(f.first, f.second);
  if (cls == ErrorClass::kTransient) ctx.transient();
  ctx.fail(msg);
}

// Validate before the scheduler thread exists, so a bad config cannot
// leave a running thread behind a throwing constructor.
EngineConfig validated(EngineConfig cfg) {
  MOSS_CHECK(cfg.max_batch > 0, "max_batch must be positive");
  MOSS_CHECK(cfg.queue_capacity > 0, "queue_capacity must be positive");
  MOSS_CHECK(cfg.max_delay_ms >= 0, "max_delay_ms must be nonnegative");
  return cfg;
}

/// FEP-rank query text: the request's RTL, else the circuit's module text.
const std::string& rank_query_text(const Request& req) {
  return !req.rtl_text.empty()
             ? req.rtl_text
             : (req.circuit ? req.circuit->module_text : req.rtl_text);
}

/// EMBED text: the request's RTL, else the batch's module text.
const std::string& embed_text(const Request& req,
                              const core::CircuitBatch& batch) {
  return !req.rtl_text.empty() ? req.rtl_text : batch.module_text;
}

/// Ranking order: score descending, pool index ascending on ties.
void sort_ranking(std::vector<RankEntry>& ranking) {
  std::sort(ranking.begin(), ranking.end(),
            [](const RankEntry& a, const RankEntry& b) {
              return a.score != b.score ? a.score > b.score
                                        : a.index < b.index;
            });
}

}  // namespace

InferenceEngine::InferenceEngine(ModelRegistry& registry,
                                 EmbeddingCache* cache, EngineConfig cfg)
    : registry_(registry),
      cache_(cache),
      cfg_(validated(cfg)),
      admission_(cfg_.admission),
      workers_(cfg.threads),
      scheduler_([this] { scheduler_loop(); }) {}

InferenceEngine::~InferenceEngine() { stop(); }

double InferenceEngine::worst_p95_us() {
  // The latency trigger is a threshold heuristic, so a p95 refreshed every
  // 64 submissions (rather than a full histogram walk per submit) is fine.
  if (cfg_.admission.shed_p95_us <= 0.0) return 0.0;
  if (submit_seq_.fetch_add(1, std::memory_order_relaxed) % 64 == 0) {
    const MetricsSnapshot s = metrics_.snapshot();
    double worst = 0.0;
    for (const EndpointSnapshot& e : s.endpoints) {
      worst = std::max(worst, e.p95_us);
    }
    cached_p95_us_.store(worst, std::memory_order_relaxed);
  }
  return cached_p95_us_.load(std::memory_order_relaxed);
}

std::future<Response> InferenceEngine::submit(Request req) {
  Pending p;
  p.req = std::move(req);
  p.enqueued = Clock::now();
  std::future<Response> fut = p.promise.get_future();
  // Admission control in front of the queue. Depth is read without holding
  // the queue lock across the decision — shedding is a threshold heuristic
  // and a one-request race cannot breach the hard capacity bound below.
  const AdmissionController::Decision decision = admission_.admit(
      p.req.kind, queue_depth(), cfg_.queue_capacity, worst_p95_us());
  if (decision == AdmissionController::Decision::kShed) {
    metrics_.record_shed();
    if (cfg_.allow_stale) {
      if (std::optional<Response> stale = try_serve_stale(p.req)) {
        stale->latency_us = std::chrono::duration<double, std::micro>(
                                Clock::now() - p.enqueued)
                                .count();
        metrics_.record(p.req.kind, stale->latency_us, /*ok=*/true);
        metrics_.record_degraded();
        p.promise.set_value(std::move(*stale));
        return fut;
      }
    }
    fail_typed("shed", "low-priority request shed under load",
               {{"kind", to_string(p.req.kind)}}, ErrorClass::kTransient);
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      fail_typed("stopped", "inference engine is stopped");
    }
    if (queue_.size() >= cfg_.queue_capacity) {
      metrics_.record_rejected();
      fail_typed("queue_full", "serve queue full — request rejected",
                 {{"capacity", std::to_string(cfg_.queue_capacity)}},
                 ErrorClass::kTransient);
    }
    if (p.req.kind == RequestKind::kVerify) {
      // VERIFY latency class: admission is capped by summed conflict
      // budgets, not request count — one huge check and many small ones
      // load the solver the same way. Reserved here (under mu_, so
      // concurrent submits serialize against the cap) and released by the
      // dispatch worker once the promise settles.
      const std::uint64_t budget = verify_budget(p.req);
      const std::uint64_t inflight =
          verify_inflight_.load(std::memory_order_relaxed);
      if (inflight + budget > cfg_.verify_inflight_budget) {
        metrics_.record_verify_shed();
        fail_typed("verify_capacity",
                   "VERIFY conflict budget in flight exceeds engine cap",
                   {{"inflight", std::to_string(inflight)},
                    {"requested", std::to_string(budget)},
                    {"cap", std::to_string(cfg_.verify_inflight_budget)}},
                   ErrorClass::kTransient);
      }
      verify_inflight_.fetch_add(budget, std::memory_order_relaxed);
    }
    queue_.push_back(std::move(p));
    metrics_.set_queue_depth(queue_.size());
  }
  cv_.notify_all();
  return fut;
}

Response InferenceEngine::call(Request req) {
  return submit(std::move(req)).get();
}

void InferenceEngine::register_pool(
    const std::string& name,
    std::vector<std::shared_ptr<const core::CircuitBatch>> members) {
  auto pool = std::make_shared<Pool>();
  pool->hashes.reserve(members.size());
  for (const auto& m : members) {
    MOSS_CHECK(m != nullptr, "pool member must not be null");
    // content_hash() reuses the hash build_batch/to_batch already computed,
    // so registering a pool does not re-walk every member graph.
    pool->hashes.push_back(core::content_hash(*m));
  }
  pool->members = std::move(members);
  const std::lock_guard<std::mutex> lock(pools_mu_);
  pools_[name] = std::move(pool);  // atomic replacement, like the registry
}

std::shared_ptr<const InferenceEngine::Pool> InferenceEngine::find_pool(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(pools_mu_);
  const auto it = pools_.find(name);
  return it == pools_.end() ? nullptr : it->second;
}

std::size_t InferenceEngine::pool_size(const std::string& name) const {
  const std::shared_ptr<const Pool> pool = find_pool(name);
  return pool ? pool->members.size() : 0;
}

std::size_t InferenceEngine::queue_depth() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

HealthReport InferenceEngine::health() const {
  HealthReport r;
  r.queue_depth = queue_depth();
  r.queue_capacity = cfg_.queue_capacity;
  const ModelRegistry::BreakerStats bs = registry_.breaker_stats();
  r.models = bs.models;
  r.breakers_open = bs.open;
  r.models_unservable = bs.unservable;
  r.shed = metrics_.shed_count();
  r.degraded_served = metrics_.degraded_count();
  r.state = roll_up_health(r, cfg_.admission);
  return r;
}

void InferenceEngine::refresh_gauges() {
  if (cache_) {
    const CacheStats cs = cache_->stats();
    metrics_.set_cache_counters(cs.hits, cs.misses, cs.evictions, cs.bytes,
                                cs.entries, cs.oversize_rejections);
  }
  const ModelRegistry::BreakerStats bs = registry_.breaker_stats();
  metrics_.set_resilience(to_string(health().state), bs.open, bs.open_events,
                          bs.half_open_events, bs.close_events);
}

std::string InferenceEngine::metrics_text() {
  refresh_gauges();
  return metrics_.text();
}

std::string InferenceEngine::metrics_json() {
  refresh_gauges();
  return metrics_.json();
}

void InferenceEngine::stop() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (scheduler_.joinable()) scheduler_.join();
}

void InferenceEngine::scheduler_loop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) break;  // stopping and fully drained
      // Micro-batching: give late arrivals up to max_delay to join, but
      // never hold a full batch back.
      const auto wait_until =
          Clock::now() + std::chrono::milliseconds(cfg_.max_delay_ms);
      cv_.wait_until(lk, wait_until, [&] {
        return queue_.size() >= cfg_.max_batch || stopping_;
      });
      const std::size_t take = std::min(queue_.size(), cfg_.max_batch);
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      metrics_.set_queue_depth(queue_.size());
    }
    dispatch(batch);
  }
}

namespace {

/// Dispatch order of fusable groups within a window: alignment-facing kinds
/// (EMBED, FEP-rank) first, then the timing/power kinds.
int fused_priority(RequestKind kind) {
  switch (kind) {
    case RequestKind::kEmbed: return 0;
    case RequestKind::kFepRank: return 1;
    case RequestKind::kAtp: return 2;
    case RequestKind::kTrpPp: return 3;
    case RequestKind::kVerify: break;
  }
  return 4;
}

}  // namespace

void InferenceEngine::dispatch(std::vector<Pending>& batch) {
  metrics_.record_batch(batch.size());
  const auto dispatch_time = Clock::now();
  // Partition the window: model-backed requests of one (kind, model) form a
  // fusable group; VERIFY and singleton non-rank groups take the sequential
  // path unchanged. A singleton FEP-rank request still fuses — its pool
  // members stack into one propagation.
  std::vector<std::vector<Pending*>> groups;
  std::vector<std::pair<RequestKind, std::string>> keys;
  std::vector<Pending*> solo;
  for (Pending& p : batch) {
    if (!cfg_.fused_batching || p.req.kind == RequestKind::kVerify) {
      solo.push_back(&p);
      continue;
    }
    std::size_t gi = groups.size();
    for (std::size_t k = 0; k < keys.size(); ++k) {
      if (keys[k].first == p.req.kind && keys[k].second == p.req.model) {
        gi = k;
        break;
      }
    }
    if (gi == groups.size()) {
      keys.emplace_back(p.req.kind, p.req.model);
      groups.emplace_back();
    }
    groups[gi].push_back(&p);
  }
  for (std::size_t k = 0; k < groups.size();) {
    if (groups[k].size() == 1 && keys[k].first != RequestKind::kFepRank) {
      solo.push_back(groups[k][0]);  // nothing to stack for a lone circuit
      groups.erase(groups.begin() + static_cast<std::ptrdiff_t>(k));
      keys.erase(keys.begin() + static_cast<std::ptrdiff_t>(k));
    } else {
      ++k;
    }
  }
  std::vector<std::size_t> order(groups.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return fused_priority(keys[a].first) <
                            fused_priority(keys[b].first);
                   });
  // One work item per solo request and per fused group. Request isolation
  // is unchanged: every failure mode — bad request, missing model, injected
  // fault, deadline — is captured into that request's promise; the worker,
  // the rest of the batch and the scheduler keep going.
  const std::size_t n_solo = solo.size();
  workers_.parallel_for(0, n_solo + order.size(), [&](std::size_t i) {
    // Route the worker's intermediate tensor allocations through the
    // engine-lifetime arena so steady-state inference stops hitting the
    // allocator. Response tensors keep the pool alive past the scope.
    const tensor::kernels::ScratchArena::Scope scratch_scope(arena_);
    if (i < n_solo) {
      dispatch_one(*solo[i], dispatch_time);
    } else {
      dispatch_fused(groups[order[i - n_solo]], dispatch_time);
    }
  });
}

void InferenceEngine::dispatch_one(Pending& p,
                                   Clock::time_point dispatch_time) {
  const auto deadline =
      p.enqueued + std::chrono::milliseconds(p.req.deadline_ms);
  try {
    // Deadline expiry is permanent by design: re-submitting a request
    // whose deadline already passed can never succeed, and the retries
    // would land exactly when the queue is congested. The caller gets
    // the timeout immediately and decides itself whether to try again.
    if (p.req.deadline_ms > 0 && dispatch_time >= deadline) {
      metrics_.record_deadline_expired();
      fail_typed("deadline_expired", "request deadline expired in queue",
                 {{"deadline_ms", std::to_string(p.req.deadline_ms)},
                  {"stage", "queue"}});
    }
    MOSS_FAULT_POINT("serve.engine.dispatch");
    Response r = process(p.req);
    // Deadline covers dispatch too: a request that finished computing
    // after its deadline must fail typed, not return a stale success the
    // caller has already given up on.
    if (p.req.deadline_ms > 0 && Clock::now() >= deadline) {
      metrics_.record_deadline_expired();
      fail_typed("deadline_expired",
                 "request deadline expired during dispatch",
                 {{"deadline_ms", std::to_string(p.req.deadline_ms)},
                  {"stage", "dispatch"}});
    }
    r.latency_us =
        std::chrono::duration<double, std::micro>(Clock::now() - p.enqueued)
            .count();
    metrics_.record(p.req.kind, r.latency_us, /*ok=*/true);
    p.promise.set_value(std::move(r));
  } catch (...) {
    metrics_.record(p.req.kind, 0.0, /*ok=*/false);
    p.promise.set_exception(std::current_exception());
  }
  // Release the conflict budget submit() reserved — on every outcome
  // (success, typed failure, deadline), or the cap would leak shut.
  if (p.req.kind == RequestKind::kVerify) {
    verify_inflight_.fetch_sub(verify_budget(p.req),
                               std::memory_order_relaxed);
  }
}

void InferenceEngine::dispatch_fused(std::vector<Pending*>& group,
                                     Clock::time_point dispatch_time) {
  // Pre-checks mirror the sequential path exactly: a queue-expired deadline
  // or a firing dispatch fault fails that request alone, up front, before
  // it can occupy rows in the stacked batch.
  std::vector<Pending*> live;
  live.reserve(group.size());
  for (Pending* p : group) {
    try {
      const auto deadline =
          p->enqueued + std::chrono::milliseconds(p->req.deadline_ms);
      if (p->req.deadline_ms > 0 && dispatch_time >= deadline) {
        metrics_.record_deadline_expired();
        fail_typed("deadline_expired", "request deadline expired in queue",
                   {{"deadline_ms", std::to_string(p->req.deadline_ms)},
                    {"stage", "queue"}});
      }
      MOSS_FAULT_POINT("serve.engine.dispatch");
      live.push_back(p);
    } catch (...) {
      metrics_.record(p->req.kind, 0.0, /*ok=*/false);
      p->promise.set_exception(std::current_exception());
    }
  }
  if (live.empty()) return;
  std::vector<char> settled(live.size(), 0);
  try {
    fused_group(live, settled);
  } catch (...) {
    // The stacked compute failed as a whole (injected forward fault,
    // breaker-open acquire, cache-insert fault, ...). Degrade gracefully:
    // every member not yet settled is retried solo below, so one poisoned
    // unit never takes its batchmates down with it.
  }
  // Count retries BEFORE settling them solo, so the counter is already
  // visible when the retried requests' futures resolve.
  std::size_t retried = 0;
  for (const char f : settled) retried += static_cast<std::size_t>(f == 0);
  if (retried > 0) metrics_.record_fused_retries(retried);
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (!settled[i]) dispatch_one(*live[i], dispatch_time);
  }
}

void InferenceEngine::fused_group(std::vector<Pending*>& group,
                                  std::vector<char>& settled) {
  const RequestKind kind = group[0]->req.kind;
  const std::string& model = group[0]->req.model;
  // One session acquisition serves the whole group; an acquire failure
  // (unknown model, breaker open) sends every member to the solo path,
  // which owns the stale-fallback and error-reporting logic.
  ModelRegistry::Acquired acq = registry_.acquire(model);
  const MossSession& s = *acq.session;

  // Per-request preparation. Requests this stage cannot prepare (bad
  // request, unknown pool, resolve failure) are left unsettled for the solo
  // retry, which reproduces the identical typed error with the sequential
  // path's breaker accounting.
  struct Slot {
    ResolvedBatch rb;                      // circuit-bound kinds
    std::shared_ptr<const Pool> pool;      // FEP-rank
    std::string text;                      // FEP-rank query RTL
    std::vector<std::size_t> member_unit;  // FEP-rank: pool member -> unit
    std::size_t unit = 0;                  // circuit-bound kinds
    bool ok = false;
  };
  std::vector<Slot> slots(group.size());
  std::vector<FusedUnit> units;
  std::unordered_map<std::uint64_t, std::size_t> unit_index;
  const auto intern_unit = [&](std::shared_ptr<const core::CircuitBatch> b,
                               std::uint64_t h) {
    const auto [it, fresh] = unit_index.try_emplace(h, units.size());
    if (fresh) units.push_back(FusedUnit{std::move(b), h});
    return it->second;
  };
  for (std::size_t i = 0; i < group.size(); ++i) {
    const Request& req = group[i]->req;
    Slot& sl = slots[i];
    if (kind == RequestKind::kFepRank) {
      sl.pool = find_pool(req.pool);
      sl.text = rank_query_text(req);
      if (!sl.pool || sl.text.empty()) continue;  // solo retry -> typed error
      sl.member_unit.reserve(sl.pool->members.size());
      for (std::size_t j = 0; j < sl.pool->members.size(); ++j) {
        sl.member_unit.push_back(
            intern_unit(sl.pool->members[j], sl.pool->hashes[j]));
      }
      sl.ok = true;
    } else {
      if (kind == RequestKind::kTrpPp && !req.circuit) continue;
      try {
        sl.rb = resolve_batch(s, req);
      } catch (...) {
        continue;  // solo retry reproduces the typed resolve error
      }
      sl.unit = intern_unit(sl.rb.batch, sl.rb.hash);
      sl.ok = true;
    }
  }
  if (units.empty()) return;  // nothing fusable: everyone retries solo

  // Cache probe per unit: a warm unit skips propagation entirely (and for
  // the embedding kinds even the netlist head), exactly like the
  // sequential get_or_compute path. Only misses are fused.
  const bool want_netlist =
      kind == RequestKind::kEmbed || kind == RequestKind::kFepRank;
  const std::size_t U = units.size();
  std::vector<Tensor> node_h(U), netlist_e(U);
  std::vector<std::size_t> need;
  for (std::size_t u = 0; u < U; ++u) {
    if (cache_ != nullptr) {
      if (want_netlist) {
        if (std::optional<Tensor> e =
                cache_->get(netlist_key(s.fingerprint(), units[u].hash))) {
          netlist_e[u] = std::move(*e);
          continue;
        }
      }
      if (std::optional<Tensor> h = cache_->get(
              node_embedding_key(s.fingerprint(), units[u].hash))) {
        node_h[u] = std::move(*h);
        continue;
      }
    }
    need.push_back(u);
  }

  // Stacked propagation over the misses, chunked by the row cap. Computed
  // rows are inserted under the same keys the sequential path uses, so the
  // warm path stays bit-identical whichever path filled the cache.
  std::size_t begin = 0;
  while (begin < need.size()) {
    std::vector<FusedUnit> chunk;
    std::vector<std::size_t> chunk_ids;
    std::size_t rows = 0;
    std::size_t end = begin;
    while (end < need.size()) {
      const std::size_t r = units[need[end]].batch->graph.num_nodes;
      if (!chunk.empty() && rows + r > cfg_.fused_max_rows) break;
      chunk.push_back(units[need[end]]);
      chunk_ids.push_back(need[end]);
      rows += r;
      ++end;
    }
    const FusedForward ff = fused_node_embeddings(s, chunk);
    metrics_.record_fused_batch(chunk.size(), ff.rows);
    for (std::size_t k = 0; k < chunk_ids.size(); ++k) {
      node_h[chunk_ids[k]] = ff.node_h[k];
      if (cache_ != nullptr) {
        cache_->put(node_embedding_key(s.fingerprint(),
                                       units[chunk_ids[k]].hash),
                    node_h[chunk_ids[k]]);
      }
    }
    begin = end;
  }

  if (want_netlist) {
    for (std::size_t u = 0; u < U; ++u) {
      if (netlist_e[u].defined()) continue;
      MOSS_FAULT_POINT("serve.session.forward");
      netlist_e[u] =
          s.model().netlist_embedding(*units[u].batch, node_h[u]).detach();
      if (cache_ != nullptr) {
        cache_->put(netlist_key(s.fingerprint(), units[u].hash),
                    netlist_e[u]);
      }
    }
  }

  // Per-request heads + settlement. A head failure leaves that request
  // unsettled for the solo retry; everything else in the group still
  // settles here.
  for (std::size_t i = 0; i < group.size(); ++i) {
    if (settled[i] != 0 || !slots[i].ok) continue;
    Pending& p = *group[i];
    const Request& req = p.req;
    try {
      Response r;
      r.kind = kind;
      r.model = req.model;
      r.session_uid = s.uid();
      switch (kind) {
        case RequestKind::kFepRank: {
          const Tensor r_e = rtl_embedding(s, slots[i].text);
          r.ranking.reserve(slots[i].member_unit.size());
          for (std::size_t j = 0; j < slots[i].member_unit.size(); ++j) {
            const std::size_t u = slots[i].member_unit[j];
            r.ranking.push_back(RankEntry{
                j, units[u].batch->name,
                s.model().pair_score(r_e, netlist_e[u])});
          }
          sort_ranking(r.ranking);
          break;
        }
        case RequestKind::kAtp: {
          const core::CircuitBatch& batch = *units[slots[i].unit].batch;
          MOSS_FAULT_POINT("serve.session.forward");
          const Tensor flop = s.model().predict_arrival(
              batch, node_h[slots[i].unit], batch.flop_rows);
          r.values.reserve(batch.flop_rows.size());
          for (std::size_t k = 0; k < batch.flop_rows.size(); ++k) {
            r.values.push_back(static_cast<double>(flop.at(k, 0)) *
                               core::kArrivalScale);
          }
          break;
        }
        case RequestKind::kTrpPp: {
          const core::CircuitBatch& batch = *units[slots[i].unit].batch;
          MOSS_FAULT_POINT("serve.session.forward");
          const core::LocalPredictions pred =
              s.model().predict_local(batch, node_h[slots[i].unit]);
          r.values.reserve(batch.cell_rows.size());
          std::vector<double> rates(req.circuit->netlist.num_nodes(), 0.0);
          for (std::size_t k = 0; k < batch.cell_rows.size(); ++k) {
            const double t = static_cast<double>(pred.toggle.at(k, 0));
            r.values.push_back(t);
            rates[static_cast<std::size_t>(batch.cell_rows[k])] = t;
          }
          r.power_uw =
              power::analyze_power(req.circuit->netlist, rates).total_uw;
          break;
        }
        case RequestKind::kEmbed: {
          r.embedding = netlist_e[slots[i].unit].data();
          const std::string& text =
              embed_text(req, *units[slots[i].unit].batch);
          if (!text.empty()) {
            r.rtl_embedding = rtl_embedding(s, text).data();
          }
          break;
        }
        case RequestKind::kVerify:
          break;  // never grouped
      }
      // Breaker accounting first (a successful forward is a successful
      // forward even if the caller's deadline then expires — the
      // sequential path reports from inside process() the same way).
      registry_.report(model, s.uid(), /*ok=*/true,
                       /*transient_failure=*/false, acq.probe);
      if (acq.fallback) {
        r.degraded = true;
        metrics_.record_degraded();
      }
      // Deadline re-check *after* the fused compute and split: a slow
      // mega-batch must yield a typed expiry per victim, not a late
      // success the caller has already abandoned. Permanent and never
      // solo-retried — a retry could only finish even later.
      // Counters are bumped BEFORE the promise settles: a caller that reads
      // the metrics right after its future resolves must see its own
      // request accounted for.
      if (req.deadline_ms > 0 &&
          Clock::now() >=
              p.enqueued + std::chrono::milliseconds(req.deadline_ms)) {
        metrics_.record_deadline_expired();
        try {
          fail_typed("deadline_expired",
                     "request deadline expired during fused dispatch",
                     {{"deadline_ms", std::to_string(req.deadline_ms)},
                      {"stage", "dispatch"}});
        } catch (...) {
          metrics_.record(req.kind, 0.0, /*ok=*/false);
          metrics_.record_fused_requests(1);
          settled[i] = 1;
          p.promise.set_exception(std::current_exception());
        }
        continue;
      }
      r.latency_us =
          std::chrono::duration<double, std::micro>(Clock::now() - p.enqueued)
              .count();
      metrics_.record(req.kind, r.latency_us, /*ok=*/true);
      metrics_.record_fused_requests(1);
      settled[i] = 1;
      p.promise.set_value(std::move(r));
    } catch (...) {
      // Head computation failed for this request alone: leave it for the
      // solo retry.
    }
  }
}

Tensor InferenceEngine::node_embeddings(const MossSession& s,
                                        const core::CircuitBatch& batch,
                                        std::uint64_t batch_hash) const {
  const auto compute = [&] {
    MOSS_FAULT_POINT("serve.session.forward");
    return s.model().node_embeddings(batch).detach();
  };
  if (!cache_) return compute();
  return cache_->get_or_compute(node_embedding_key(s.fingerprint(), batch_hash),
                                compute);
}

Tensor InferenceEngine::netlist_embedding(const MossSession& s,
                                          const core::CircuitBatch& batch,
                                          std::uint64_t batch_hash) const {
  const auto compute = [&] {
    const Tensor h = node_embeddings(s, batch, batch_hash);
    MOSS_FAULT_POINT("serve.session.forward");
    return s.model().netlist_embedding(batch, h).detach();
  };
  if (!cache_) return compute();
  return cache_->get_or_compute(netlist_key(s.fingerprint(), batch_hash), compute);
}

Tensor InferenceEngine::rtl_embedding(const MossSession& s,
                                      const std::string& text) const {
  const auto compute = [&] {
    MOSS_FAULT_POINT("serve.session.forward");
    return s.model().rtl_embedding(text).detach();
  };
  if (!cache_) return compute();
  return cache_->get_or_compute(rtl_key(s.fingerprint(), text), compute);
}

InferenceEngine::ResolvedBatch InferenceEngine::resolve_batch(
    const MossSession& s, const Request& req) const {
  ResolvedBatch rb;
  if (req.kind == RequestKind::kFepRank) return rb;  // pool-driven, no batch
  if (req.batch) {
    rb.batch = req.batch;
    rb.hash = core::content_hash(*req.batch);
  } else if (req.circuit) {
    // Batch construction is encoder-side tokenization against this
    // session's encoder, so the result is only valid for sessions sharing
    // its fingerprint — recorded so fallback paths know.
    rb.batch = std::make_shared<core::CircuitBatch>(s.build(*req.circuit));
    rb.hash = core::content_hash(*rb.batch);
    rb.built_uid = s.fingerprint();
  } else {
    fail_typed("bad_request", "request needs a circuit or a prebuilt batch");
  }
  return rb;
}

std::uint64_t InferenceEngine::verify_budget(const Request& req) const {
  if (req.verify_conflict_budget == 0) return cfg_.verify_conflict_limit;
  return std::min(req.verify_conflict_budget, cfg_.verify_conflict_limit);
}

Response InferenceEngine::process_verify(const Request& req) {
  if (!req.circuit || !req.circuit_b) {
    fail_typed("bad_request",
               "VERIFY needs two circuits (circuit and circuit_b)");
  }
  sat::OracleConfig ocfg;
  ocfg.seed = cfg_.verify_seed;
  ocfg.conflict_budget = verify_budget(req);
  ocfg.max_frames = cfg_.verify_max_frames;
  const sat::EquivOracle oracle(ocfg);
  const sat::OracleResult res =
      oracle.check(req.circuit->netlist, req.circuit_b->netlist);
  if (res.verdict == sat::Verdict::kUnknown &&
      res.unknown_reason == sat::UnknownReason::kConflictBudget) {
    // Budget exhaustion is the VERIFY analogue of a deadline: permanent,
    // because retrying the identical budget re-runs the identical
    // (deterministic) search. The caller must raise the budget to make
    // progress.
    metrics_.record_verify_timeout();
    fail_typed("verify_timeout",
               "SAT conflict budget exhausted before a verdict",
               {{"conflicts", std::to_string(res.stats.conflicts)},
                {"budget", std::to_string(ocfg.conflict_budget)}});
  }
  Response r;
  r.kind = RequestKind::kVerify;
  r.model = req.model;
  r.verdict = sat::to_string(res.verdict);
  r.verify_detail = res.detail;
  r.verify_conflicts = res.stats.conflicts;
  r.verify_frames = res.frames_checked;
  if (res.verdict == sat::Verdict::kNotEquivalent &&
      !res.cex.inputs.empty()) {
    // Render the sim-confirmed counterexample compactly: one `fN` group
    // per frame, inputs in the oracle's sorted order.
    std::string cex;
    for (std::size_t f = 0; f < res.cex.frames.size(); ++f) {
      if (f > 0) cex += " | ";
      cex += "f" + std::to_string(f) + ":";
      for (std::size_t i = 0; i < res.cex.inputs.size(); ++i) {
        cex += " " + res.cex.inputs[i] + "=" +
               (res.cex.frames[f][i] != 0 ? "1" : "0");
      }
    }
    if (!res.cex.mismatch_output.empty()) {
      cex += " -> " + res.cex.mismatch_output;
    }
    r.verify_cex = std::move(cex);
  }
  return r;
}

Response InferenceEngine::process(const Request& req) {
  // VERIFY never touches a model session, the cache or the breaker: it is
  // a pure solver call with its own admission cap and failure taxonomy.
  if (req.kind == RequestKind::kVerify) return process_verify(req);
  ModelRegistry::Acquired acq;
  try {
    acq = registry_.acquire(req.model);
  } catch (const std::exception& e) {
    // Breaker open with no fallback session: the healthy path is gone, but
    // a stale cached answer may still be acceptable for low-priority kinds.
    if (is_transient(e) && cfg_.allow_stale && low_priority(req.kind)) {
      if (std::optional<Response> stale = try_serve_stale(req)) {
        metrics_.record_degraded();
        return std::move(*stale);
      }
    }
    throw;
  }
  const MossSession& s = *acq.session;
  // One batch resolution (and one content hash) per request — every
  // downstream consumer, including the stale fallback below, reuses it.
  ResolvedBatch rb;
  try {
    rb = resolve_batch(s, req);
    Response r = process_with(s, req, rb);
    registry_.report(req.model, s.uid(), /*ok=*/true,
                     /*transient_failure=*/false, acq.probe);
    if (acq.fallback) {
      // Served by the last-known-good session while the breaker is open.
      r.degraded = true;
      metrics_.record_degraded();
    }
    return r;
  } catch (const std::exception& e) {
    const bool transient = is_transient(e);
    registry_.report(req.model, s.uid(), /*ok=*/false, transient, acq.probe);
    if (transient && cfg_.allow_stale && low_priority(req.kind)) {
      if (std::optional<Response> stale = try_serve_stale(req, &rb)) {
        metrics_.record_degraded();
        return std::move(*stale);
      }
    }
    throw;
  }
}

std::optional<Response> InferenceEngine::try_serve_stale(
    const Request& req, const ResolvedBatch* rb) {
  if (cache_ == nullptr || !low_priority(req.kind)) return std::nullopt;
  const std::shared_ptr<const MossSession> session =
      registry_.try_get(req.model);
  if (!session) return std::nullopt;
  const MossSession& s = *session;
  try {
    Response r;
    r.kind = req.kind;
    r.model = req.model;
    r.session_uid = s.uid();
    r.degraded = true;
    if (req.kind == RequestKind::kFepRank) {
      const std::shared_ptr<const Pool> pool = find_pool(req.pool);
      const std::string& text = rank_query_text(req);
      if (!pool || text.empty()) return std::nullopt;
      const std::optional<Tensor> r_e =
          cache_->get(rtl_key(s.fingerprint(), text));
      if (!r_e) return std::nullopt;
      r.ranking.reserve(pool->members.size());
      for (std::size_t j = 0; j < pool->members.size(); ++j) {
        const std::optional<Tensor> n_e =
            cache_->get(netlist_key(s.fingerprint(), pool->hashes[j]));
        if (!n_e) return std::nullopt;  // partial rankings would mislead
        r.ranking.push_back(RankEntry{j, pool->members[j]->name,
                                      s.model().pair_score(*r_e, *n_e)});
      }
      sort_ranking(r.ranking);
      return r;
    }
    // kEmbed. Reuse the dispatcher's resolved batch when it is usable here
    // (caller-provided, or built by this very session); otherwise resolve
    // once ourselves. Batch construction is encoder-side tokenization, not
    // a model forward pass, so it is safe even when the session's forwards
    // fail.
    std::shared_ptr<const core::CircuitBatch> batch;
    std::uint64_t bh = 0;
    if (rb != nullptr && rb->batch &&
        (rb->built_uid == 0 || rb->built_uid == s.fingerprint())) {
      batch = rb->batch;
      bh = rb->hash;
    } else if (req.batch) {
      batch = req.batch;
      bh = core::content_hash(*batch);
    } else if (req.circuit) {
      batch = std::make_shared<core::CircuitBatch>(s.build(*req.circuit));
      bh = core::content_hash(*batch);
    } else {
      return std::nullopt;
    }
    const std::optional<Tensor> n_e =
        cache_->get(netlist_key(s.fingerprint(), bh));
    if (!n_e) return std::nullopt;
    r.embedding = n_e->data();
    const std::string& text = embed_text(req, *batch);
    if (!text.empty()) {
      const std::optional<Tensor> r_e =
          cache_->get(rtl_key(s.fingerprint(), text));
      if (!r_e) return std::nullopt;  // keep the response shape consistent
      r.rtl_embedding = r_e->data();
    }
    return r;
  } catch (...) {
    // Degraded serving is best-effort; the caller reports the real failure.
    return std::nullopt;
  }
}

Response InferenceEngine::process_with(const MossSession& s,
                                       const Request& req,
                                       const ResolvedBatch& rb) {
  Response r;
  r.kind = req.kind;
  r.model = req.model;
  r.session_uid = s.uid();

  if (req.kind == RequestKind::kFepRank) {
    const std::shared_ptr<const Pool> pool = find_pool(req.pool);
    if (!pool) {
      fail_typed("unknown_pool", "FEP-rank pool not registered",
                 {{"pool", req.pool}});
    }
    const std::string& text = rank_query_text(req);
    if (text.empty()) {
      fail_typed("bad_request", "FEP-rank needs query RTL text");
    }
    const Tensor r_e = rtl_embedding(s, text);
    r.ranking.reserve(pool->members.size());
    for (std::size_t j = 0; j < pool->members.size(); ++j) {
      const core::CircuitBatch& member = *pool->members[j];
      const Tensor n_e = netlist_embedding(s, member, pool->hashes[j]);
      r.ranking.push_back(
          RankEntry{j, member.name, s.model().pair_score(r_e, n_e)});
    }
    sort_ranking(r.ranking);
    return r;
  }

  // Circuit-bound kinds: ATP, TRP+PP, EMBED. The batch and its content hash
  // were resolved exactly once in process().
  const std::shared_ptr<const core::CircuitBatch>& batch = rb.batch;
  const std::uint64_t bh = rb.hash;

  switch (req.kind) {
    case RequestKind::kAtp: {
      const Tensor h = node_embeddings(s, *batch, bh);
      MOSS_FAULT_POINT("serve.session.forward");
      const Tensor flop =
          s.model().predict_arrival(*batch, h, batch->flop_rows);
      r.values.reserve(batch->flop_rows.size());
      for (std::size_t i = 0; i < batch->flop_rows.size(); ++i) {
        r.values.push_back(static_cast<double>(flop.at(i, 0)) *
                           core::kArrivalScale);
      }
      return r;
    }
    case RequestKind::kTrpPp: {
      if (!req.circuit) {
        fail_typed("bad_request",
                   "TRP+PP needs the circuit (power model reads the "
                   "netlist)");
      }
      const Tensor h = node_embeddings(s, *batch, bh);
      MOSS_FAULT_POINT("serve.session.forward");
      const core::LocalPredictions pred = s.model().predict_local(*batch, h);
      r.values.reserve(batch->cell_rows.size());
      std::vector<double> rates(req.circuit->netlist.num_nodes(), 0.0);
      for (std::size_t i = 0; i < batch->cell_rows.size(); ++i) {
        const double t = static_cast<double>(pred.toggle.at(i, 0));
        r.values.push_back(t);
        rates[static_cast<std::size_t>(batch->cell_rows[i])] = t;
      }
      r.power_uw =
          power::analyze_power(req.circuit->netlist, rates).total_uw;
      return r;
    }
    case RequestKind::kEmbed: {
      const Tensor n_e = netlist_embedding(s, *batch, bh);
      r.embedding = n_e.data();
      const std::string& text = embed_text(req, *batch);
      if (!text.empty()) {
        r.rtl_embedding = rtl_embedding(s, text).data();
      }
      return r;
    }
    case RequestKind::kFepRank:
      break;  // handled above
    case RequestKind::kVerify:
      break;  // never reaches a session: process() routed it already
  }
  fail_typed("bad_request", "unknown request kind");
}

}  // namespace moss::serve
