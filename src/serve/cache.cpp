#include "serve/cache.hpp"

#include <algorithm>
#include <cctype>

#include "core_util/fault.hpp"
#include "core_util/hash.hpp"

namespace moss::serve {

std::string canonical_rtl(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  bool in_space = true;  // swallow leading whitespace
  for (std::size_t i = 0; i < text.size(); ++i) {
    // Line comments.
    if (text[i] == '/' && i + 1 < text.size() && text[i + 1] == '/') {
      while (i < text.size() && text[i] != '\n') ++i;
      --i;  // the newline (if any) is handled as whitespace next round
      continue;
    }
    // Block comments.
    if (text[i] == '/' && i + 1 < text.size() && text[i + 1] == '*') {
      i += 2;
      while (i + 1 < text.size() && !(text[i] == '*' && text[i + 1] == '/')) {
        ++i;
      }
      ++i;  // skip the '/'
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(text[i]))) {
      if (!in_space) out.push_back(' ');
      in_space = true;
      continue;
    }
    in_space = false;
    out.push_back(text[i]);
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

namespace {
// Per-embedding-type tags keep key spaces disjoint.
constexpr std::uint64_t kTagRtl = 0x52544C00;      // "RTL"
constexpr std::uint64_t kTagNode = 0x4E4F4445;     // "NODE"
constexpr std::uint64_t kTagNetlist = 0x4E455400;  // "NET"
}  // namespace

std::uint64_t rtl_key(std::uint64_t session_uid, std::string_view rtl_text) {
  return HashBuilder()
      .mix(kTagRtl)
      .mix(session_uid)
      .mix(canonical_rtl(rtl_text))
      .digest();
}

std::uint64_t node_embedding_key(std::uint64_t session_uid,
                                 std::uint64_t batch_hash) {
  return HashBuilder().mix(kTagNode).mix(session_uid).mix(batch_hash).digest();
}

std::uint64_t netlist_key(std::uint64_t session_uid,
                          std::uint64_t batch_hash) {
  return HashBuilder()
      .mix(kTagNetlist)
      .mix(session_uid)
      .mix(batch_hash)
      .digest();
}

namespace {
std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

EmbeddingCache::EmbeddingCache(std::size_t byte_budget, std::size_t shards)
    : budget_(byte_budget),
      shard_budget_(byte_budget / std::max<std::size_t>(
                                      1, round_up_pow2(std::max<std::size_t>(
                                             1, shards)))),
      shards_(round_up_pow2(std::max<std::size_t>(1, shards))) {}

std::size_t EmbeddingCache::entry_bytes(const tensor::Tensor& t) {
  return t.size() * sizeof(float) + kEntryOverhead;
}

std::optional<tensor::Tensor> EmbeddingCache::get(std::uint64_t key) {
  Shard& s = shard_for(key);
  const std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.map.find(key);
  if (it == s.map.end()) {
    ++s.misses;
    return std::nullopt;
  }
  ++s.hits;
  s.lru.splice(s.lru.begin(), s.lru, it->second.lru_it);  // refresh
  return it->second.value;
}

void EmbeddingCache::put(std::uint64_t key, const tensor::Tensor& value) {
  MOSS_FAULT_POINT("serve.cache.insert");
  const tensor::Tensor stored = value.detach();
  const std::size_t bytes = entry_bytes(stored);
  Shard& s = shard_for(key);
  const std::lock_guard<std::mutex> lock(s.mu);
  ++s.inserts;
  const auto it = s.map.find(key);
  if (it != s.map.end()) {
    // Refresh in place (identical content under a content address, but a
    // caller may re-put after a racing compute).
    s.bytes -= it->second.bytes;
    s.lru.erase(it->second.lru_it);
    s.map.erase(it);
  }
  if (bytes > shard_budget_) {
    // Never admit overweight values — but count the refusal so operators can
    // see a budget that is too small for the workload's tensors.
    ++s.oversize_rejections;
    return;
  }
  while (s.bytes + bytes > shard_budget_ && !s.lru.empty()) {
    const std::uint64_t victim = s.lru.back();
    s.lru.pop_back();
    const auto vit = s.map.find(victim);
    s.bytes -= vit->second.bytes;
    s.map.erase(vit);
    ++s.evictions;
  }
  s.lru.push_front(key);
  Entry e;
  e.value = stored;
  e.bytes = bytes;
  e.lru_it = s.lru.begin();
  s.map.emplace(key, std::move(e));
  s.bytes += bytes;
}

tensor::Tensor EmbeddingCache::get_or_compute(
    std::uint64_t key, const std::function<tensor::Tensor()>& compute) {
  if (std::optional<tensor::Tensor> hit = get(key)) return *hit;
  const tensor::Tensor value = compute().detach();
  put(key, value);
  return value;
}

std::vector<std::pair<std::uint64_t, tensor::Tensor>>
EmbeddingCache::export_entries() const {
  std::vector<std::pair<std::uint64_t, tensor::Tensor>> out;
  for (const Shard& s : shards_) {
    const std::lock_guard<std::mutex> lock(s.mu);
    // lru lists front = most recent; walk back-to-front for coldest-first.
    for (auto it = s.lru.rbegin(); it != s.lru.rend(); ++it) {
      const auto e = s.map.find(*it);
      out.emplace_back(*it, e->second.value);
    }
  }
  return out;
}

CacheStats EmbeddingCache::stats() const {
  CacheStats out;
  for (const Shard& s : shards_) {
    const std::lock_guard<std::mutex> lock(s.mu);
    out.hits += s.hits;
    out.misses += s.misses;
    out.evictions += s.evictions;
    out.inserts += s.inserts;
    out.oversize_rejections += s.oversize_rejections;
    out.bytes += s.bytes;
    out.entries += s.map.size();
  }
  return out;
}

void EmbeddingCache::clear() {
  for (Shard& s : shards_) {
    const std::lock_guard<std::mutex> lock(s.mu);
    s.map.clear();
    s.lru.clear();
    s.bytes = 0;
  }
}

}  // namespace moss::serve
