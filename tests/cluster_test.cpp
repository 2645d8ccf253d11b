// moss::cluster test suite: consistent-hash ring determinism and failover
// order, MOSSSEG1 segment round-trips under a corruption matrix (truncation
// and bit-flips at every region -> typed skip, never a crash), session
// fingerprint stability across reloads, router failover/breaker behavior
// against flaky backends, a seeded in-process chaos soak, and supervisor
// respawn semantics with real child processes.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/ring.hpp"
#include "cluster/router.hpp"
#include "cluster/segment.hpp"
#include "cluster/supervisor.hpp"
#include "cell/library.hpp"
#include "core_util/error.hpp"
#include "core_util/rng.hpp"
#include "data/dataset.hpp"
#include "serve/cache.hpp"
#include "serve/registry.hpp"

namespace moss {
namespace {

using cluster::HashRing;
using cluster::LoadReport;
using cluster::Router;
using cluster::RouterConfig;
using cluster::SaveReport;
using cluster::SegmentEntry;
using serve::EmbeddingCache;
using tensor::Tensor;

Tensor filled(std::size_t cols, float base) {
  Tensor t = Tensor::zeros(1, cols);
  for (std::size_t i = 0; i < cols; ++i) {
    t.data()[i] = base + 0.25f * static_cast<float>(i);
  }
  return t;
}

/// Unique scratch directory, removed on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/moss_cluster_test_XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    const std::string cmd = "rm -rf '" + path + "'";
    [[maybe_unused]] int rc = std::system(cmd.c_str());
  }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void spit(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
}

// ---------------------------------------------------------------------------
// HashRing

TEST(HashRing, DeterministicAcrossInstances) {
  HashRing a(64, 7), b(64, 7);
  for (std::uint32_t s = 0; s < 5; ++s) {
    a.add_shard(s);
    b.add_shard(s);
  }
  // A ring rebuilt in another process (same config) must agree on every
  // placement, or a respawned router would scatter warm keys.
  for (std::uint64_t key = 0; key < 2000; ++key) {
    EXPECT_EQ(a.owner(key * 0x9E3779B97F4A7C15ull),
              b.owner(key * 0x9E3779B97F4A7C15ull));
  }
}

TEST(HashRing, EveryShardOwnsASliceAndReplicasAreDistinct) {
  HashRing ring(64, 0);
  for (std::uint32_t s = 0; s < 4; ++s) ring.add_shard(s);
  std::set<std::uint32_t> seen;
  for (std::uint64_t key = 0; key < 4000; ++key) {
    const std::uint64_t h = key * 0x9E3779B97F4A7C15ull + 1;
    const auto owners = ring.owners(h, 3);
    ASSERT_EQ(owners.size(), 3u);
    EXPECT_EQ(owners[0], ring.owner(h));
    std::set<std::uint32_t> uniq(owners.begin(), owners.end());
    EXPECT_EQ(uniq.size(), owners.size()) << "replicas must be distinct";
    seen.insert(owners[0]);
  }
  EXPECT_EQ(seen.size(), 4u) << "with 64 vnodes every shard owns keys";
}

TEST(HashRing, RemovingAShardOnlyMovesItsOwnKeys) {
  HashRing before(64, 3), after(64, 3);
  for (std::uint32_t s = 0; s < 4; ++s) {
    before.add_shard(s);
    after.add_shard(s);
  }
  after.remove_shard(2);
  std::size_t moved = 0, total = 0;
  for (std::uint64_t key = 0; key < 4000; ++key) {
    const std::uint64_t h = key * 0x9E3779B97F4A7C15ull + 5;
    ++total;
    if (before.owner(h) == 2) {
      EXPECT_NE(after.owner(h), 2u);
      ++moved;
    } else {
      EXPECT_EQ(after.owner(h), before.owner(h))
          << "keys not owned by the removed shard must not move";
    }
  }
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, total / 2) << "~1/4 of keys should move, not half";
}

TEST(HashRing, EmptyRingFailsTyped) {
  HashRing ring;
  try {
    ring.owner(42);
    FAIL() << "expected ContextError";
  } catch (const ContextError& e) {
    EXPECT_EQ(e.context_value("reason"), "empty_ring");
  }
  EXPECT_TRUE(ring.owners(42, 2).empty());
}

// ---------------------------------------------------------------------------
// MOSSSEG1 segments

TEST(Segment, BlobRoundTripPreservesEntriesBitExact) {
  std::vector<SegmentEntry> in;
  in.push_back({11, filled(16, 1.0f)});
  in.push_back({22, filled(8, -3.5f)});
  const std::string blob = cluster::serialize_segment(0xFEEDBEEF, in);

  ErrorContext ctx;
  ctx.add("file", "<memory>");
  const auto out = cluster::deserialize_segment(blob, 0xFEEDBEEF, ctx);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, 11u);
  EXPECT_EQ(out[0].value.rows(), 1u);
  EXPECT_EQ(out[0].value.cols(), 16u);
  EXPECT_EQ(out[0].value.data(), in[0].value.data());
  EXPECT_EQ(out[1].key, 22u);
  EXPECT_EQ(out[1].value.data(), in[1].value.data());
}

TEST(Segment, FingerprintMismatchFailsTyped) {
  const std::string blob =
      cluster::serialize_segment(0xAAAA, {{1, filled(4, 1.0f)}});
  ErrorContext ctx;
  ctx.add("file", "<memory>");
  EXPECT_NO_THROW(cluster::deserialize_segment(blob, 0, ctx))
      << "expect_fingerprint=0 accepts any model";
  try {
    cluster::deserialize_segment(blob, 0xBBBB, ctx);
    FAIL() << "expected ContextError";
  } catch (const ContextError& e) {
    EXPECT_EQ(e.context_value("reason"), "model_mismatch");
    EXPECT_EQ(e.context_value("file"), "<memory>");
  }
}

TEST(Segment, SaveLoadRoundTripRestoresCacheWarm) {
  TempDir dir;
  EmbeddingCache cache(1 << 20, 2);
  for (std::uint64_t k = 1; k <= 20; ++k) {
    cache.put(k, filled(16, static_cast<float>(k)));
  }
  const SaveReport sr = cluster::save_cache(dir.path, cache, 0x1234);
  EXPECT_EQ(sr.entries, 20u);
  EXPECT_GE(sr.segments, 1u);

  EmbeddingCache fresh(1 << 20, 2);
  const LoadReport lr = cluster::load_cache(dir.path, fresh, 0x1234);
  EXPECT_EQ(lr.entries, 20u);
  EXPECT_EQ(lr.segments_rejected, 0u) << lr.first_error;
  EXPECT_EQ(lr.segments_loaded, sr.segments);
  for (std::uint64_t k = 1; k <= 20; ++k) {
    const auto got = fresh.get(k);
    ASSERT_TRUE(got.has_value()) << "key " << k;
    EXPECT_EQ(got->data(), filled(16, static_cast<float>(k)).data());
  }
}

TEST(Segment, SmallMaxSegmentBytesSplitsAndGcReclaimsOldGenerations) {
  TempDir dir;
  EmbeddingCache cache(1 << 20, 1);
  for (std::uint64_t k = 1; k <= 10; ++k) {
    cache.put(k, filled(64, static_cast<float>(k)));
  }
  // 64 floats = 256B payload/entry; 600B segments force several files.
  const SaveReport sr1 = cluster::save_cache(dir.path, cache, 0x1, 600);
  EXPECT_GE(sr1.segments, 4u);

  // Second generation with different content: old segments get GC'd.
  cache.clear();
  cache.put(99, filled(64, 0.5f));
  const SaveReport sr2 = cluster::save_cache(dir.path, cache, 0x1, 600);
  EXPECT_EQ(sr2.entries, 1u);
  EXPECT_GT(sr2.removed, 0u) << "previous generation should be collected";

  EmbeddingCache fresh(1 << 20, 1);
  const LoadReport lr = cluster::load_cache(dir.path, fresh, 0x1);
  EXPECT_EQ(lr.entries, 1u);
  EXPECT_TRUE(fresh.get(99).has_value());
  EXPECT_FALSE(fresh.get(1).has_value());
}

TEST(Segment, LoadPreservesLruRecencyOrder) {
  TempDir dir;
  // One shard, budget for exactly three 16-float entries after reload.
  const std::size_t entry = 16 * 4 + EmbeddingCache::kEntryOverhead;
  EmbeddingCache cache(3 * entry, 1);
  cache.put(1, filled(16, 1.0f));
  cache.put(2, filled(16, 2.0f));
  cache.put(3, filled(16, 3.0f));
  ASSERT_TRUE(cache.get(1).has_value());  // recency now: 1,3,2 (hot->cold)
  cluster::save_cache(dir.path, cache, 0x7);

  EmbeddingCache fresh(3 * entry, 1);
  cluster::load_cache(dir.path, fresh, 0x7);
  // Insert one more: the LRU victim must be 2 (coldest), as before the
  // round-trip — export/import preserved relative recency.
  fresh.put(4, filled(16, 4.0f));
  EXPECT_FALSE(fresh.get(2).has_value());
  EXPECT_TRUE(fresh.get(1).has_value());
  EXPECT_TRUE(fresh.get(3).has_value());
  EXPECT_TRUE(fresh.get(4).has_value());
}

TEST(Segment, SaveCreatesNestedCacheDirectories) {
  // Launcher layout is <cache_root>/shardN with no pre-created root; the
  // first flush must mkdir -p its way down.
  TempDir dir;
  EmbeddingCache cache(1 << 20, 1);
  cache.put(1, filled(8, 1.0f));
  const std::string nested = dir.path + "/cache/shard0";
  EXPECT_EQ(cluster::save_cache(nested, cache, 0x2).entries, 1u);
  EmbeddingCache fresh(1 << 20, 1);
  EXPECT_EQ(cluster::load_cache(nested, fresh, 0x2).entries, 1u);
}

TEST(Segment, EmptyDirectoryIsACleanColdStart) {
  TempDir dir;
  EmbeddingCache cache(1 << 20);
  const LoadReport lr = cluster::load_cache(dir.path + "/nonexistent", cache,
                                            0x1);
  EXPECT_EQ(lr.entries, 0u);
  EXPECT_EQ(lr.segments_loaded, 0u);
  EXPECT_EQ(lr.segments_rejected, 0u);
  EXPECT_TRUE(lr.first_error.empty()) << lr.first_error;
}

// The corruption matrix: every region of a segment file — magic, version,
// size field, CRC, payload head/middle/tail — flipped or truncated. Load
// must reject the damaged segment typed (counted, first_error set), keep
// entries from healthy segments, and never crash or mis-load.
TEST(Segment, CorruptionMatrixTruncateAndFlipNeverCrashes) {
  TempDir dir;
  EmbeddingCache cache(1 << 20, 1);
  for (std::uint64_t k = 1; k <= 6; ++k) {
    cache.put(k, filled(32, static_cast<float>(k)));
  }
  // Two segments: corrupt one, the other must survive every scenario.
  const SaveReport sr = cluster::save_cache(dir.path, cache, 0x77, 400);
  ASSERT_GE(sr.segments, 2u);

  // Pick a victim segment: filenames are recorded verbatim inside the
  // manifest payload, so scanning its bytes for "seg_*.mossseg" is enough.
  std::string victim;
  const std::string manifest = slurp(dir.path + "/MANIFEST.mossmft");
  const std::size_t pos = manifest.find("seg_");
  ASSERT_NE(pos, std::string::npos);
  victim = manifest.substr(pos, manifest.find(".mossseg", pos) + 8 - pos);
  const std::string victim_path = dir.path + "/" + victim;
  const std::string pristine = slurp(victim_path);
  ASSERT_GT(pristine.size(), cluster::kSegmentHeaderBytes);

  struct Scenario {
    const char* name;
    std::size_t truncate_to;  // SIZE_MAX = no truncation
    std::size_t flip_at;      // SIZE_MAX = no flip
  };
  const std::size_t NOPE = static_cast<std::size_t>(-1);
  const std::vector<Scenario> scenarios = {
      {"empty file", 0, NOPE},
      {"header torn", cluster::kSegmentHeaderBytes / 2, NOPE},
      {"payload torn", pristine.size() - 7, NOPE},
      {"one byte short", pristine.size() - 1, NOPE},
      {"magic flipped", NOPE, 0},
      {"version flipped", NOPE, 9},
      {"size flipped", NOPE, 17},
      {"crc flipped", NOPE, 25},
      {"payload head flipped", NOPE, cluster::kSegmentHeaderBytes},
      {"payload tail flipped", NOPE, pristine.size() - 1},
  };

  for (const Scenario& sc : scenarios) {
    SCOPED_TRACE(sc.name);
    std::string bytes = pristine;
    if (sc.truncate_to != NOPE) bytes.resize(sc.truncate_to);
    if (sc.flip_at != NOPE) bytes[sc.flip_at] ^= 0x40;
    spit(victim_path, bytes);

    EmbeddingCache fresh(1 << 20, 1);
    LoadReport lr;
    ASSERT_NO_THROW(lr = cluster::load_cache(dir.path, fresh, 0x77));
    EXPECT_EQ(lr.segments_rejected, 1u);
    EXPECT_FALSE(lr.first_error.empty());
    EXPECT_NE(lr.first_error.find(victim), std::string::npos)
        << "error must name the damaged file: " << lr.first_error;
    EXPECT_EQ(lr.segments_loaded, sr.segments - 1)
        << "healthy segments must still load";
    EXPECT_GT(lr.entries, 0u);
    EXPECT_LT(lr.entries, 6u);
  }

  // Restore the pristine bytes: everything loads again.
  spit(victim_path, pristine);
  EmbeddingCache fresh(1 << 20, 1);
  const LoadReport lr = cluster::load_cache(dir.path, fresh, 0x77);
  EXPECT_EQ(lr.segments_rejected, 0u) << lr.first_error;
  EXPECT_EQ(lr.entries, 6u);
}

TEST(Segment, DamagedManifestFallsBackToDirectoryScan) {
  TempDir dir;
  EmbeddingCache cache(1 << 20, 1);
  cache.put(5, filled(16, 5.0f));
  cluster::save_cache(dir.path, cache, 0x9);

  spit(dir.path + "/MANIFEST.mossmft", "not a manifest at all");
  EmbeddingCache fresh(1 << 20, 1);
  const LoadReport lr = cluster::load_cache(dir.path, fresh, 0x9);
  EXPECT_EQ(lr.entries, 1u) << "segments still load via directory scan";
  EXPECT_FALSE(lr.first_error.empty()) << "manifest damage is reported";
  EXPECT_TRUE(fresh.get(5).has_value());
}

// ---------------------------------------------------------------------------
// Session fingerprint (restart-stable cache keys)

TEST(Fingerprint, StableAcrossReloadDistinctAcrossModels) {
  core::WorkflowConfig cfg;
  cfg.model.hidden = 8;
  cfg.model.rounds = 1;
  cfg.dataset.sim_cycles = 100;
  cfg.encoder = {512, 8, 3};
  cfg.fine_tune.epochs = 1;
  cfg.fine_tune.max_pairs_per_epoch = 500;
  const auto lc = data::label_circuit({"alu", 1, 31, "fp_alu"},
                                      cell::standard_library(), cfg.dataset);
  const std::vector<std::string> corpus{lc.module_text};

  // Two boots of the same config+corpus — what a supervisor respawn does —
  // must produce the same fingerprint (the persisted cache keys hit) but
  // different process uids (registry bookkeeping stays per-boot).
  const auto s1 = serve::MossSession::load(cfg, corpus, "");
  const auto s2 = serve::MossSession::load(cfg, corpus, "");
  EXPECT_NE(s1->fingerprint(), 0u);
  EXPECT_EQ(s1->fingerprint(), s2->fingerprint());
  EXPECT_NE(s1->uid(), s2->uid());

  // A different model (hidden size) must never share cache keys.
  core::WorkflowConfig other = cfg;
  other.model.hidden = 12;
  const auto s3 = serve::MossSession::load(other, corpus, "");
  EXPECT_NE(s3->fingerprint(), s1->fingerprint());
}

// ---------------------------------------------------------------------------
// Router failover against flaky backends

/// Scriptable backend: echoes OK lines while up; throws the transient
/// transport error a dead moss_serve socket produces while down.
class FakeBackend : public cluster::Backend {
 public:
  explicit FakeBackend(std::string name) : name_(std::move(name)) {}

  std::string request(const std::string& line) override {
    ++requests_;
    if (down_) {
      ErrorContext ctx;
      ctx.add("socket", name_)
          .add("reason", "connect_failed")
          .transient()
          .fail("connection refused");
    }
    if (line == "HEALTH") {
      return "OK HEALTH state=ok shard=" + name_;
    }
    if (line == "FLUSH") {
      return "OK FLUSH segments=1 entries=3";
    }
    return "OK " + name_ + " " + line;
  }
  const std::string& name() const override { return name_; }

  void set_down(bool down) { down_ = down; }
  std::uint64_t requests() const { return requests_; }

 private:
  std::string name_;
  std::atomic<bool> down_{false};
  std::atomic<std::uint64_t> requests_{0};
};

struct RouterWorld {
  std::vector<FakeBackend*> fakes;
  std::unique_ptr<Router> router;

  explicit RouterWorld(std::size_t n, RouterConfig cfg = {}) {
    std::vector<std::unique_ptr<cluster::Backend>> backends;
    for (std::size_t i = 0; i < n; ++i) {
      auto b = std::make_unique<FakeBackend>("s" + std::to_string(i));
      fakes.push_back(b.get());
      backends.push_back(std::move(b));
    }
    router = std::make_unique<Router>(std::move(backends), cfg);
  }
};

TEST(Router, RoutesSameDesignToSameShardAlways) {
  RouterWorld w(3);
  const auto shard_of = [](const std::string& resp) {
    return resp.substr(3, resp.find(' ', 3) - 3);  // "OK <shard> ..."
  };
  const std::string owner = shard_of(w.router->route("ATP alu:2"));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(shard_of(w.router->route("ATP alu:2")), owner)
        << "affinity: one design, one shard";
  }
  // Whitespace variants of the design route identically (canonicalized).
  EXPECT_EQ(shard_of(w.router->route("ATP   alu:2  ")), owner);
}

TEST(Router, FailsOverToReplicaWhenOwnerDies) {
  RouterConfig cfg;
  cfg.replicas = 1;
  cfg.retry.max_attempts = 1;  // transport failover, not in-place retry
  RouterWorld w(3, cfg);

  const std::string healthy = w.router->route("EMBED crc:2");
  ASSERT_EQ(healthy.rfind("OK s", 0), 0u) << healthy;
  const std::string owner = healthy.substr(3, healthy.find(' ', 3) - 3);

  for (FakeBackend* f : w.fakes) {
    if (f->name() == owner) f->set_down(true);
  }
  const std::string failover = w.router->route("EMBED crc:2");
  ASSERT_EQ(failover.rfind("OK s", 0), 0u)
      << "replica must answer: " << failover;
  EXPECT_NE(failover.substr(3, failover.find(' ', 3) - 3), owner);
  EXPECT_GE(w.router->stats().failovers, 1u);
}

TEST(Router, AllOwnersDownYieldsTypedShardDownNeverThrows) {
  RouterConfig cfg;
  cfg.replicas = 0;  // no replicas: owner down = typed error
  cfg.retry.max_attempts = 1;
  RouterWorld w(2, cfg);
  for (FakeBackend* f : w.fakes) f->set_down(true);

  for (int i = 0; i < 8; ++i) {
    std::string resp;
    ASSERT_NO_THROW(resp = w.router->route("ATP alu:2"));
    EXPECT_EQ(resp.rfind("ERR shard_down shard=", 0), 0u) << resp;
  }
  EXPECT_GE(w.router->stats().shard_down_errors, 8u);
  EXPECT_EQ(w.router->health(), serve::HealthState::kDown);
}

TEST(Router, BreakerOpensOnDeadShardAndRecoversAfterRespawn) {
  RouterConfig cfg;
  cfg.replicas = 0;
  cfg.retry.max_attempts = 1;
  cfg.breaker.failure_threshold = 3;
  cfg.breaker.open_cooldown_ms = 30;
  RouterWorld w(1, cfg);
  w.fakes[0]->set_down(true);

  for (int i = 0; i < 5; ++i) w.router->route("ATP alu:2");
  EXPECT_EQ(w.router->breaker_state(0), serve::BreakerState::kOpen);
  const std::uint64_t reqs_at_open = w.fakes[0]->requests();
  // While open, requests are refused without touching the dead backend.
  w.router->route("ATP alu:2");
  EXPECT_EQ(w.fakes[0]->requests(), reqs_at_open)
      << "open breaker must not pay the connect timeout";

  // "Respawn" the shard; after the cooldown a half-open probe succeeds and
  // traffic resumes.
  w.fakes[0]->set_down(false);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  const std::string resp = w.router->route("ATP alu:2");
  EXPECT_EQ(resp.rfind("OK s0", 0), 0u) << resp;
  EXPECT_EQ(w.router->breaker_state(0), serve::BreakerState::kClosed);
  EXPECT_EQ(w.router->health(), serve::HealthState::kOk);
}

TEST(Router, OwnerLookupMatchesRoutingAndFlushBroadcasts) {
  RouterConfig cfg;
  cfg.retry.max_attempts = 1;
  RouterWorld w(3, cfg);

  // OWNER answers from the ring without generating shard traffic, and
  // must name the shard ATP traffic actually lands on.
  const std::uint64_t before = w.fakes[0]->requests() +
                               w.fakes[1]->requests() +
                               w.fakes[2]->requests();
  const std::string owner_resp = w.router->route("OWNER alu:2");
  ASSERT_EQ(owner_resp.rfind("OK OWNER shard=", 0), 0u) << owner_resp;
  EXPECT_EQ(w.fakes[0]->requests() + w.fakes[1]->requests() +
                w.fakes[2]->requests(),
            before);
  const std::string owner = owner_resp.substr(15);
  const std::string served = w.router->route("ATP alu:2");
  EXPECT_EQ(served.substr(3, served.find(' ', 3) - 3), owner) << served;

  EXPECT_EQ(w.router->route("OWNER").rfind("ERR bad_request", 0), 0u);

  // FLUSH reaches every shard; a dead one is reported, not fatal.
  w.fakes[2]->set_down(true);
  const std::string flush = w.router->route("FLUSH");
  EXPECT_EQ(flush.rfind("OK FLUSH flushed=2/3", 0), 0u) << flush;
  EXPECT_NE(flush.find("s0=[segments=1 entries=3]"), std::string::npos)
      << flush;
  EXPECT_NE(flush.find("s2=[unreachable]"), std::string::npos) << flush;
}

TEST(Router, HealthRollsUpAcrossFleet) {
  RouterConfig cfg;
  cfg.retry.max_attempts = 1;
  RouterWorld w(3, cfg);
  EXPECT_EQ(w.router->health(), serve::HealthState::kOk);

  const std::string all_up = w.router->route("HEALTH");
  EXPECT_EQ(all_up.rfind("OK HEALTH state=ok shards=3 up=3 down=0", 0), 0u)
      << all_up;

  w.fakes[1]->set_down(true);
  const std::string one_down = w.router->route("HEALTH");
  EXPECT_EQ(one_down.rfind("OK HEALTH state=degraded shards=3 up=2 down=1",
                           0),
            0u)
      << one_down;
  EXPECT_NE(one_down.find("s1=unreachable"), std::string::npos) << one_down;
  EXPECT_EQ(w.router->health(), serve::HealthState::kDegraded);
}

// Seeded in-process chaos soak: random kills and revivals while traffic
// flows. Invariants: the router never throws, every response is "OK ..."
// or a typed "ERR <code> ...", and once the fleet is revived health
// returns to ok.
TEST(Router, ChaosSoakOnlyTypedResponsesAndHealthRecovers) {
  RouterConfig cfg;
  cfg.replicas = 1;
  cfg.retry.max_attempts = 1;
  cfg.breaker.failure_threshold = 2;
  cfg.breaker.open_cooldown_ms = 10;
  RouterWorld w(3, cfg);
  Rng rng(20260808);

  const std::vector<std::string> designs = {"alu:2", "crc:2", "fifo:2",
                                            "arbiter:2"};
  for (int step = 0; step < 400; ++step) {
    if (step % 20 == 5) {
      w.fakes[rng.index(w.fakes.size())]->set_down(true);
    }
    if (step % 20 == 15) {
      w.fakes[rng.index(w.fakes.size())]->set_down(false);
    }
    const std::string& d = designs[rng.index(designs.size())];
    std::string resp;
    ASSERT_NO_THROW(resp = w.router->route("ATP " + d));
    const bool ok = resp.rfind("OK ", 0) == 0;
    const bool typed_err = resp.rfind("ERR ", 0) == 0 &&
                           resp.find(' ', 4) != std::string::npos;
    EXPECT_TRUE(ok || typed_err) << "untyped response: " << resp;
  }

  for (FakeBackend* f : w.fakes) f->set_down(false);
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  // HEALTH exchanges with every slot, so each pass hands half-open
  // breakers a successful probe; a few passes close the whole fleet.
  for (int i = 0; i < 4; ++i) {
    w.router->route("HEALTH");
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
  }
  EXPECT_EQ(w.router->health(), serve::HealthState::kOk);
}

// ---------------------------------------------------------------------------
// Supervisor (real child processes)

TEST(Supervisor, CleanExitIsHonoredNotRespawned) {
  cluster::Supervisor sup({.max_restarts = 3,
                           .backoff_base_ms = 10,
                           .backoff_cap_ms = 50,
                           .shutdown_grace_ms = 500});
  sup.add_shard({"clean", {"/bin/sh", "-c", "exit 0"}});
  sup.start();
  for (int i = 0; i < 100; ++i) {
    if (sup.status()[0].state == cluster::ShardState::kExited) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const auto st = sup.status()[0];
  EXPECT_EQ(st.state, cluster::ShardState::kExited);
  EXPECT_EQ(st.restarts, 0);
  sup.shutdown();
}

TEST(Supervisor, DirtyExitRespawnsUntilGiveUp) {
  cluster::Supervisor sup({.max_restarts = 2,
                           .backoff_base_ms = 5,
                           .backoff_cap_ms = 20,
                           .shutdown_grace_ms = 500});
  sup.add_shard({"crashy", {"/bin/sh", "-c", "exit 3"}});
  sup.start();
  for (int i = 0; i < 200; ++i) {
    if (sup.status()[0].state == cluster::ShardState::kGaveUp) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const auto st = sup.status()[0];
  EXPECT_EQ(st.state, cluster::ShardState::kGaveUp);
  EXPECT_EQ(st.restarts, 2) << "respawned max_restarts times, then gave up";
  sup.shutdown();
}

TEST(Supervisor, SigkilledShardIsRespawned) {
  cluster::Supervisor sup({.max_restarts = 5,
                           .backoff_base_ms = 5,
                           .backoff_cap_ms = 20,
                           .shutdown_grace_ms = 500});
  sup.add_shard({"victim", {"/bin/sh", "-c", "sleep 30"}});
  sup.start();
  const pid_t first = sup.pid_of(0);
  ASSERT_GT(first, 0);

  ASSERT_EQ(::kill(first, SIGKILL), 0);
  pid_t second = -1;
  for (int i = 0; i < 200; ++i) {
    second = sup.pid_of(0);
    if (second > 0 && second != first) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(second, 0) << "shard must come back";
  EXPECT_NE(second, first);
  EXPECT_GE(sup.status()[0].restarts, 1);
  sup.shutdown();
  EXPECT_EQ(sup.running_count(), 0u);
}

}  // namespace
}  // namespace moss
