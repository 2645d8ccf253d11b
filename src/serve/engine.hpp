#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core_util/thread_pool.hpp"
#include "data/dataset.hpp"
#include "serve/cache.hpp"
#include "serve/metrics.hpp"
#include "serve/registry.hpp"
#include "serve/resilience.hpp"
#include "tensor/kernels.hpp"

namespace moss::serve {

/// One inference request. ATP/TRP+PP/EMBED need a circuit (and use `batch`
/// when the caller prebuilt it against the target session's encoder —
/// otherwise the engine builds one); FEP-rank needs only `rtl_text` (or
/// takes it from the circuit) plus the name of a registered pool. A caller
/// holding a compiled MOSSPLN1 blob passes the batch it stores (to_batch)
/// as `batch`; that batch carries its stored content hash, so the engine
/// does not re-hash it.
struct Request {
  RequestKind kind = RequestKind::kAtp;
  std::shared_ptr<const data::LabeledCircuit> circuit;
  std::shared_ptr<const core::CircuitBatch> batch;
  std::string rtl_text;             ///< FEP-rank query RTL
  std::string pool;                 ///< FEP-rank target pool name
  /// VERIFY: the second circuit of the equivalence pair (`circuit` is the
  /// first). Both must carry netlists; anything else is a typed
  /// bad_request.
  std::shared_ptr<const data::LabeledCircuit> circuit_b;
  /// VERIFY: per-request CDCL conflict budget. 0 = the engine's
  /// verify_conflict_limit. Values above the engine limit are clamped —
  /// a client cannot buy more solver time than the operator configured.
  std::uint64_t verify_conflict_budget = 0;
  std::string model = "default";    ///< registry name to serve with
  /// Soft deadline from submit time; 0 = none. A request still queued when
  /// its deadline passes is failed with a typed ContextError instead of
  /// occupying a batch slot.
  int deadline_ms = 0;
};

struct RankEntry {
  std::size_t index = 0;  ///< pool member index
  std::string name;       ///< pool member circuit name
  float score = 0.0f;
};

struct Response {
  RequestKind kind = RequestKind::kAtp;
  /// ATP: per-flop arrival times (ps, netlist flop order).
  /// TRP+PP: per-cell predicted toggle rates (cell_rows order).
  std::vector<double> values;
  double power_uw = 0.0;               ///< TRP+PP: power at predicted rates
  std::vector<float> embedding;        ///< EMBED: pooled netlist embedding
  std::vector<float> rtl_embedding;    ///< EMBED: RTL text embedding
  std::vector<RankEntry> ranking;      ///< FEP-rank: pool sorted by score
  /// VERIFY: "EQUIVALENT", "NOT_EQUIVALENT" or "UNKNOWN" (depth bound hit
  /// with no counterexample — the answer is typed, not an error; conflict
  /// budget exhaustion IS an error, reason=verify_timeout). Empty for every
  /// other request kind.
  std::string verdict;
  std::string verify_detail;           ///< VERIFY: human-readable one-liner
  std::uint64_t verify_conflicts = 0;  ///< VERIFY: CDCL conflicts spent
  int verify_frames = 0;               ///< VERIFY: time frames checked
  /// VERIFY: rendered counterexample ("f0 a=1 b=0 ... out=<name>"), empty
  /// unless NOT_EQUIVALENT. Every counterexample was replayed through
  /// aig_sim before it got here.
  std::string verify_cex;
  std::string model;                   ///< session name that served it
  std::uint64_t session_uid = 0;
  double latency_us = 0.0;             ///< queue wait + compute
  /// Set when the answer did not come from a healthy forward pass of the
  /// current session: served by the last-known-good fallback session while
  /// the breaker is open, or straight from stale EmbeddingCache entries.
  /// Degraded responses are NOT guaranteed bit-identical to the current
  /// model's output; non-degraded ones are.
  bool degraded = false;
};

struct EngineConfig {
  /// Micro-batching: dispatch when `max_batch` requests are queued or the
  /// oldest has waited `max_delay_ms`, whichever comes first.
  std::size_t max_batch = 8;
  int max_delay_ms = 2;
  /// Bounded admission queue; submit() beyond this throws a typed
  /// ContextError (reason=queue_full) instead of blocking the caller.
  std::size_t queue_capacity = 64;
  /// Worker threads for fanning a batch out (0 = hardware concurrency).
  std::size_t threads = 0;
  /// Utilization-based load shedding in front of the queue: low-priority
  /// kinds (EMBED, FEP-rank) are refused with a typed transient
  /// `reason=shed` error before the hard queue_full bound is reached.
  AdmissionConfig admission;
  /// Degraded mode: when the model's breaker is open (or a shed would
  /// reject the request), EMBED and FEP-rank answers may be served from
  /// stale EmbeddingCache entries with Response::degraded set.
  bool allow_stale = false;
  /// VERIFY latency class. SAT checks are orders of magnitude more
  /// expensive than a forward pass, so they get their own admission cap:
  /// the summed conflict budgets of in-flight VERIFY requests may not
  /// exceed verify_inflight_budget — beyond that, submits are refused with
  /// a typed transient `verify_capacity` error (counted as verify_shed)
  /// instead of wedging the batch pipeline behind solver calls.
  std::uint64_t verify_conflict_limit = 50000;   ///< per-request default/cap
  std::uint64_t verify_inflight_budget = 200000; ///< summed in-flight cap
  int verify_max_frames = 8;                     ///< BMC unroll depth
  std::uint64_t verify_seed = 1;                 ///< solver determinism seed
  /// Cross-request fused batching: model-backed requests of the same kind
  /// and model within one dispatch window are packed into a single stacked
  /// two-phase propagation — one GEMM per layer per cluster across all
  /// grouped circuits (FEP-rank additionally dedupes pool members shared
  /// between concurrent requests, so a pool is propagated once per window,
  /// not once per request). Responses are bit-identical to the sequential
  /// per-request path; a request that fails inside a fused batch is retried
  /// solo, so it can never poison its batchmates.
  bool fused_batching = true;
  /// Stacked-row cap per fused propagation; unit sets beyond it run in
  /// chunks (bounds peak ScratchArena growth for mega-batches).
  std::size_t fused_max_rows = 1u << 20;
};

/// Batched inference engine over registered MossSessions.
///
///   ModelRegistry reg;                      // name -> warm session
///   EmbeddingCache cache(64 << 20);         // content-addressed LRU
///   InferenceEngine eng(reg, &cache, {});
///   eng.register_pool("pool", batches);     // FEP-rank corpus
///   auto f = eng.submit({.kind = RequestKind::kAtp, .circuit = lc});
///   Response r = f.get();                   // throws what the request threw
///
/// A scheduler thread collects submissions into micro-batches (max_batch /
/// max_delay) and fans each batch out on a moss::ThreadPool. Every request
/// is isolated: a throwing request (including injected faults) fails only
/// its own future — the scheduler and queue keep running. All embedding
/// reuse goes through the content-addressed cache when one is attached, so
/// cached responses are bit-identical to direct MossModel calls.
///
/// Resilience: an AdmissionController sheds low-priority load before the
/// queue fills, the ModelRegistry's per-session circuit breakers route
/// around (or refuse) a failing session, and with `allow_stale` the engine
/// answers EMBED/FEP-rank from stale cache entries (marked degraded) when
/// the healthy path is unavailable. health() rolls the whole picture into
/// one OK/DEGRADED/OVERLOADED/DOWN state.
///
/// MOSS_FAULT sites: "serve.engine.dispatch" (per request, at batch
/// dispatch), "serve.session.forward" (inside every model forward, skipped
/// on cache hits), "serve.admission.enqueue" (inside admission control),
/// "serve.cache.insert" (inside EmbeddingCache::put).
class InferenceEngine {
 public:
  InferenceEngine(ModelRegistry& registry, EmbeddingCache* cache,
                  EngineConfig cfg = {});
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Enqueue a request. Throws ContextError (reason=queue_full) when the
  /// bounded queue is at capacity and (reason=stopped) after stop().
  std::future<Response> submit(Request req);
  /// submit + wait. Rethrows the request's failure.
  Response call(Request req);

  /// Register (or atomically replace) a named FEP-rank pool. Member
  /// content hashes are precomputed here so ranking requests only pay for
  /// cache lookups on the warm path.
  void register_pool(const std::string& name,
                     std::vector<std::shared_ptr<const core::CircuitBatch>>
                         members);
  std::size_t pool_size(const std::string& name) const;

  std::size_t queue_depth() const;
  ServeMetrics& metrics() { return metrics_; }
  EmbeddingCache* cache() { return cache_; }
  /// Current service health (queue utilization + breaker roll-up).
  HealthReport health() const;
  /// Refresh cache/resilience gauges into the metrics and return the dump.
  std::string metrics_text();
  std::string metrics_json();

  /// Drain the queue and stop the scheduler. Queued requests still get
  /// served; new submissions are rejected. Idempotent; the destructor
  /// calls it.
  void stop();

 private:
  struct Pending {
    Request req;
    std::promise<Response> promise;
    std::chrono::steady_clock::time_point enqueued;
  };
  struct Pool {
    std::vector<std::shared_ptr<const core::CircuitBatch>> members;
    std::vector<std::uint64_t> hashes;  ///< content hash per member
  };
  /// A request's circuit batch resolved exactly once per dispatch: the
  /// batch, its content hash (the cache key for every embedding derived
  /// from it) and — when the batch was built by a session rather than
  /// provided by the caller — that session's fingerprint, so fallback paths
  /// know whether they may reuse it.
  struct ResolvedBatch {
    std::shared_ptr<const core::CircuitBatch> batch;
    std::uint64_t hash = 0;
    std::uint64_t built_uid = 0;  ///< 0 = caller-provided / session-agnostic
  };

  void scheduler_loop();
  void dispatch(std::vector<Pending>& batch);
  /// Sequential per-request dispatch body: deadline checks, the
  /// "serve.engine.dispatch" fault site, process(), metrics, promise
  /// settlement. Also the solo-retry path for members of a fused group
  /// that could not be served fused.
  void dispatch_one(Pending& p,
                    std::chrono::steady_clock::time_point dispatch_time);
  /// Fused path for one same-kind/same-model group: per-request pre-checks
  /// (queue deadline, dispatch fault site) with the same isolation as the
  /// sequential path, then one stacked propagation; members the fused pass
  /// cannot settle fall back to dispatch_one individually.
  void dispatch_fused(std::vector<Pending*>& group,
                      std::chrono::steady_clock::time_point dispatch_time);
  /// The fused compute. Settles the promises it can serve (marking
  /// `settled`); throws only for group-wide failures, leaving every
  /// unsettled member for the caller's solo retry.
  void fused_group(std::vector<Pending*>& group, std::vector<char>& settled);
  Response process(const Request& req);
  /// VERIFY path: no model session, no cache — a seeded EquivOracle run.
  /// Depth-bound UNKNOWN is a normal response; conflict-budget exhaustion
  /// throws typed `verify_timeout` (permanent: retrying the same budget
  /// cannot succeed).
  Response process_verify(const Request& req);
  /// The effective conflict budget of a VERIFY request (request override
  /// clamped to the engine limit).
  std::uint64_t verify_budget(const Request& req) const;
  Response process_with(const MossSession& s, const Request& req,
                        const ResolvedBatch& rb);
  ResolvedBatch resolve_batch(const MossSession& s, const Request& req) const;
  /// The registered pool `name`, or null.
  std::shared_ptr<const Pool> find_pool(const std::string& name) const;
  /// Degraded path: answer EMBED/FEP-rank purely from cached embeddings of
  /// the *current* session (no forward passes). Empty when anything needed
  /// is missing from the cache. `rb` (when non-null) carries the already
  /// resolved batch+hash so the stale path never re-hashes.
  std::optional<Response> try_serve_stale(const Request& req,
                                          const ResolvedBatch* rb = nullptr);
  void refresh_gauges();
  double worst_p95_us();
  tensor::Tensor node_embeddings(const MossSession& s,
                                 const core::CircuitBatch& batch,
                                 std::uint64_t batch_hash) const;
  tensor::Tensor netlist_embedding(const MossSession& s,
                                   const core::CircuitBatch& batch,
                                   std::uint64_t batch_hash) const;
  tensor::Tensor rtl_embedding(const MossSession& s,
                               const std::string& text) const;

  ModelRegistry& registry_;
  EmbeddingCache* cache_;  ///< may be null (compute-always mode)
  EngineConfig cfg_;
  ServeMetrics metrics_;
  AdmissionController admission_;
  std::atomic<std::uint64_t> submit_seq_{0};
  std::atomic<double> cached_p95_us_{0.0};
  /// Summed conflict budgets of admitted-but-unfinished VERIFY requests.
  /// Reserved in submit(), released when dispatch settles the promise.
  std::atomic<std::uint64_t> verify_inflight_{0};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stopping_ = false;

  mutable std::mutex pools_mu_;
  std::unordered_map<std::string, std::shared_ptr<const Pool>> pools_;

  ThreadPool workers_;
  // Reusable scratch buffers for dispatch workers; lives as long as the
  // engine so warm batches recycle instead of reallocating.
  tensor::kernels::ScratchArena arena_;
  std::thread scheduler_;
};

}  // namespace moss::serve
