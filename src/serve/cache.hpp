#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tensor/tensor.hpp"

namespace moss::serve {

/// Strip comments and collapse whitespace runs, so formatting-only variants
/// of the same RTL content-address to the same cache entry.
std::string canonical_rtl(std::string_view text);

/// Cache key constructors. Every key mixes the owning session's content
/// fingerprint (see MossSession::fingerprint) so a model with different
/// parameters can never serve a predecessor's embeddings — while a
/// respawned process that reloads the same checkpoint reproduces the same
/// keys, which is what lets moss::cluster persist this cache across
/// restarts. A per-embedding-type tag keeps an RTL key from ever colliding
/// with a netlist key for the same content. (Parameter names below say
/// `session_uid` for history; the serve engine passes the fingerprint.)
std::uint64_t rtl_key(std::uint64_t session_uid, std::string_view rtl_text);
std::uint64_t node_embedding_key(std::uint64_t session_uid,
                                 std::uint64_t batch_hash);
std::uint64_t netlist_key(std::uint64_t session_uid,
                          std::uint64_t batch_hash);

/// Aggregate counters; `hits + misses` equals the number of lookups.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t inserts = 0;
  /// puts refused because the value exceeds one shard's budget. Counted
  /// (and surfaced through metrics) rather than silently dropped: a nonzero
  /// rate means the budget is too small for the workload's tensors and the
  /// "cache" is doing nothing for them.
  std::uint64_t oversize_rejections = 0;
  std::size_t bytes = 0;    ///< accounted payload currently resident
  std::size_t entries = 0;
};

/// Content-addressed, byte-budgeted LRU cache for embedding tensors (RTL
/// embeddings, pooled netlist embeddings, per-node GNN embeddings).
///
/// The key space is split across `shards` independent shards (key low bits
/// pick the shard), each with its own mutex, LRU list and byte budget of
/// total/shards — concurrent requests for different keys rarely contend.
/// Values are detached tensor handles treated as immutable: a get returns
/// the same storage put stored, so cached results are bit-identical to the
/// first computation by construction.
///
/// Overweight values (bigger than one shard's budget) are not admitted;
/// the cache never exceeds its budget.
class EmbeddingCache {
 public:
  explicit EmbeddingCache(std::size_t byte_budget, std::size_t shards = 8);

  /// Look up `key`, refreshing its LRU position on hit.
  std::optional<tensor::Tensor> get(std::uint64_t key);
  /// Insert (or refresh) `key`. Counts one insert; evicts LRU entries of
  /// the shard until the value fits. MOSS_FAULT site "serve.cache.insert".
  void put(std::uint64_t key, const tensor::Tensor& value);
  /// get, else compute(), put, return. Concurrent callers may both compute
  /// (deterministically identical) values; one wins the slot.
  tensor::Tensor get_or_compute(
      std::uint64_t key, const std::function<tensor::Tensor()>& compute);

  /// Snapshot every resident entry for persistence (moss::cluster segment
  /// files). Entries come out coldest-first per shard, shards in index
  /// order — re-inserting them through put() in this order rebuilds the
  /// same relative LRU recency (hottest entries end up most recent again).
  /// Tensors are the cache's immutable stored handles; callers must not
  /// mutate them.
  std::vector<std::pair<std::uint64_t, tensor::Tensor>> export_entries() const;

  CacheStats stats() const;
  void clear();
  std::size_t byte_budget() const { return budget_; }
  std::size_t shard_count() const { return shards_.size(); }

  /// Bytes one tensor occupies in the accounting (payload + fixed
  /// bookkeeping overhead per entry).
  static std::size_t entry_bytes(const tensor::Tensor& t);
  static constexpr std::size_t kEntryOverhead = 64;

 private:
  struct Entry {
    tensor::Tensor value;
    std::size_t bytes = 0;
    std::list<std::uint64_t>::iterator lru_it;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, Entry> map;
    std::list<std::uint64_t> lru;  ///< front = most recent
    std::size_t bytes = 0;
    std::uint64_t hits = 0, misses = 0, evictions = 0, inserts = 0;
    std::uint64_t oversize_rejections = 0;
  };

  Shard& shard_for(std::uint64_t key) {
    return shards_[key & (shards_.size() - 1)];
  }

  std::size_t budget_;
  std::size_t shard_budget_;
  std::vector<Shard> shards_;
};

}  // namespace moss::serve
