#include "cluster/segment.hpp"

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <unordered_set>

#include "core_util/crc32.hpp"
#include "tensor/serialize.hpp"

namespace moss::cluster {

namespace {

void ensure_dir(const std::string& dir, const ErrorContext& ctx) {
  struct stat st;
  if (::stat(dir.c_str(), &st) == 0) {
    ctx.check(S_ISDIR(st.st_mode), "cache path exists but is not a directory");
    return;
  }
  // mkdir -p: cache dirs are routinely nested (<cache_root>/shardN) and the
  // root may not exist yet on a shard's first flush.
  for (std::size_t slash = dir.find('/', 1); slash != std::string::npos;
       slash = dir.find('/', slash + 1)) {
    const std::string parent = dir.substr(0, slash);
    if (parent.empty()) continue;
    ctx.check(::mkdir(parent.c_str(), 0755) == 0 || errno == EEXIST,
              std::string("mkdir failed: ") + std::strerror(errno));
  }
  ctx.check(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST,
            std::string("mkdir failed: ") + std::strerror(errno));
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool has_suffix(std::string_view name, std::string_view suffix) {
  return name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::vector<std::string> list_segment_files(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  while (dirent* e = ::readdir(d)) {
    if (has_suffix(e->d_name, ".mossseg")) names.emplace_back(e->d_name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

struct ManifestRecord {
  std::string filename;
  std::uint32_t crc = 0;
};

std::string serialize_manifest(std::uint64_t fingerprint,
                               const std::vector<ManifestRecord>& segs) {
  tensor::ByteWriter w;
  w.u64(fingerprint);
  w.u64(segs.size());
  for (const ManifestRecord& s : segs) {
    w.str(s.filename);
    w.u32(s.crc);
  }
  return tensor::frame(kManifestMagic, kSegmentVersion, w.take());
}

std::vector<ManifestRecord> deserialize_manifest(std::string_view blob,
                                                 ErrorContext ctx) {
  const std::string_view payload =
      tensor::unframe(kManifestMagic, kSegmentVersion, blob, ctx);
  tensor::ByteReader r(payload, ctx);
  r.u64();  // fingerprint — segments each carry (and enforce) their own
  const std::uint64_t n = r.u64();
  std::vector<ManifestRecord> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ManifestRecord rec;
    rec.filename = r.str();
    rec.crc = r.u32();
    ctx.check(!rec.filename.empty() &&
                  rec.filename.find('/') == std::string::npos,
              "manifest entry escapes the cache directory");
    out.push_back(std::move(rec));
  }
  r.expect_end();
  return out;
}

}  // namespace

std::string serialize_segment(std::uint64_t model_fingerprint,
                              const std::vector<SegmentEntry>& entries) {
  tensor::ByteWriter w;
  w.u64(model_fingerprint);
  w.u64(entries.size());
  for (const SegmentEntry& e : entries) {
    w.u64(e.key);
    w.u32(static_cast<std::uint32_t>(e.value.rows()));
    w.u32(static_cast<std::uint32_t>(e.value.cols()));
    const std::vector<float>& d = e.value.data();
    w.bytes(d.data(), d.size() * sizeof(float));
  }
  return tensor::frame(kSegmentMagic, kSegmentVersion, w.take());
}

std::vector<SegmentEntry> deserialize_segment(
    std::string_view blob, std::uint64_t expect_fingerprint,
    ErrorContext ctx) {
  const std::string_view payload =
      tensor::unframe(kSegmentMagic, kSegmentVersion, blob, ctx);
  tensor::ByteReader r(payload, ctx);
  const std::uint64_t fingerprint = r.u64();
  if (expect_fingerprint != 0 && fingerprint != expect_fingerprint) {
    ErrorContext c2 = ctx;
    c2.add("reason", "model_mismatch")
        .add("segment_fingerprint", hex16(fingerprint))
        .add("expected_fingerprint", hex16(expect_fingerprint))
        .fail("segment was written by a different model");
  }
  const std::uint64_t n = r.u64();
  std::vector<SegmentEntry> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    SegmentEntry e;
    e.key = r.u64();
    const std::uint32_t rows = r.u32();
    const std::uint32_t cols = r.u32();
    // CRC already passed, so an absurd shape here means a serializer bug,
    // not line noise — still fail typed rather than allocate petabytes.
    if (rows == 0 || cols == 0 ||
        static_cast<std::uint64_t>(rows) * cols * sizeof(float) >
            r.remaining()) {
      ErrorContext c2 = ctx;
      c2.add("reason", "bad_entry")
          .add("entry", std::to_string(i))
          .fail("entry shape inconsistent with payload size");
    }
    std::vector<float> data(static_cast<std::size_t>(rows) * cols);
    for (float& f : data) f = r.f32();
    e.value = tensor::Tensor::from(std::move(data), rows, cols);
    out.push_back(std::move(e));
  }
  r.expect_end();
  return out;
}

SaveReport save_cache(const std::string& dir,
                      const serve::EmbeddingCache& cache,
                      std::uint64_t model_fingerprint,
                      std::size_t max_segment_bytes) {
  ErrorContext ctx;
  ctx.add("dir", dir);
  ensure_dir(dir, ctx);

  const auto entries = cache.export_entries();
  SaveReport report;
  std::vector<ManifestRecord> manifest;
  std::unordered_set<std::string> live;

  // Pack coldest-first entries into bounded segments. Order inside and
  // across segments preserves export order, so a manifest-order reload
  // rebuilds the same relative LRU recency.
  std::vector<SegmentEntry> batch;
  std::size_t batch_bytes = 0;
  const auto flush = [&](std::vector<SegmentEntry>& seg) {
    if (seg.empty()) return;
    const std::string blob = serialize_segment(model_fingerprint, seg);
    const std::string_view payload(blob.data() + kSegmentHeaderBytes,
                                   blob.size() - kSegmentHeaderBytes);
    const std::uint32_t crc = crc32(payload);
    // Content-addressed name: same entries → same file, and a concurrent
    // generation can never collide with different content.
    const std::string name = "seg_" + hex16((static_cast<std::uint64_t>(crc)
                                             << 32) |
                                            (payload.size() & 0xFFFFFFFFu)) +
                             ".mossseg";
    if (live.insert(name).second) {
      tensor::atomic_write_file(dir + "/" + name,
                                [&](std::ostream& out) { out << blob; });
      manifest.push_back({name, crc});
      ++report.segments;
      report.bytes += payload.size();
    }
    report.entries += seg.size();
    seg.clear();
  };

  for (const auto& [key, value] : entries) {
    const std::size_t bytes = value.size() * sizeof(float) + 24;
    if (!batch.empty() && batch_bytes + bytes > max_segment_bytes) {
      flush(batch);
      batch_bytes = 0;
    }
    batch.push_back({key, value});
    batch_bytes += bytes;
  }
  flush(batch);

  // Manifest last: its rename is the atomic switch to the new generation.
  const std::string manifest_blob =
      serialize_manifest(model_fingerprint, manifest);
  tensor::atomic_write_file(dir + "/" + kManifestName, [&](std::ostream& out) {
    out << manifest_blob;
  });

  // GC segments from previous generations (not listed any more).
  for (const std::string& name : list_segment_files(dir)) {
    if (live.count(name) == 0) {
      if (::remove((dir + "/" + name).c_str()) == 0) ++report.removed;
    }
  }
  return report;
}

LoadReport load_cache(const std::string& dir, serve::EmbeddingCache& cache,
                      std::uint64_t model_fingerprint) {
  LoadReport report;
  const auto note_rejection = [&](const std::exception& e) {
    ++report.segments_rejected;
    if (report.first_error.empty()) report.first_error = e.what();
  };

  // Prefer the manifest's generation + order; fall back to a directory scan
  // (sorted) when it is missing or damaged — each segment still validates
  // itself, so the fallback can only be as warm as the files allow. An
  // absent manifest (fresh boot, empty dir) is a normal cold start, not an
  // error.
  std::vector<std::string> names;
  {
    const std::string manifest_path = dir + "/" + kManifestName;
    struct stat st;
    if (::stat(manifest_path.c_str(), &st) == 0) {
      ErrorContext ctx;
      ctx.add("file", manifest_path);
      try {
        const std::string blob = tensor::read_file(manifest_path, ctx);
        for (ManifestRecord& rec : deserialize_manifest(blob, ctx)) {
          names.push_back(std::move(rec.filename));
        }
      } catch (const std::exception& e) {
        if (report.first_error.empty()) report.first_error = e.what();
        names = list_segment_files(dir);
      }
    } else {
      names = list_segment_files(dir);
    }
  }

  for (const std::string& name : names) {
    const std::string path = dir + "/" + name;
    ErrorContext ctx;
    ctx.add("file", path);
    try {
      const std::string blob = tensor::read_file(path, ctx);
      const std::vector<SegmentEntry> entries =
          deserialize_segment(blob, model_fingerprint, ctx);
      for (const SegmentEntry& e : entries) {
        cache.put(e.key, e.value);
        ++report.entries;
      }
      ++report.segments_loaded;
    } catch (const std::exception& e) {
      // Skip-and-count: a damaged segment costs its own entries, nothing
      // else. The shard serves cold for those keys instead of crashing.
      note_rejection(e);
    }
  }
  return report;
}

}  // namespace moss::cluster
