#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core_util/error.hpp"
#include "serve/cache.hpp"
#include "tensor/serialize.hpp"

namespace moss::cluster {

/// Persistent, content-addressed on-disk embedding cache: the warm-restart
/// half of moss::cluster. A shard's EmbeddingCache is snapshotted into
/// segment files so a killed-and-respawned process starts warm (~9,200 QPS
/// FEP-rank) instead of cold (~102 QPS, see results/bench_serve.json).
///
/// Segment file format (MOSSSEG1 v1), little-endian throughout, framed by
/// the shared tensor::frame/unframe codec (the one MOSSPLN1 uses):
///
///   magic "MOSSSEG1" | u32 format_version | u32 reserved(0)
///   u64 payload_bytes | u32 payload_crc32 | payload
///   payload: u64 model_fingerprint | u64 entry_count
///            per entry: u64 key | u32 rows | u32 cols | rows*cols f32
///
/// Manifest file format (MOSSMFT1 v1), same frame:
///
///   magic "MOSSMFT1" | u32 format_version | u32 reserved(0)
///   u64 payload_bytes | u32 payload_crc32 | payload
///   payload: u64 model_fingerprint | u64 segment_count
///            per segment: str filename | u32 payload_crc32
///
/// Write discipline is MOSSCKP1's: every file goes through
/// tensor::atomic_write_file (tmp + fsync + rename), segments first, the
/// manifest last — so the manifest rename is the atomic generation switch
/// and a crash at any point leaves the previous generation fully loadable.
/// Segment files are content-addressed (named by their payload CRC + size),
/// so a half-written generation can never clobber a live segment. Loads
/// follow MOSSPLN1's one-read style: slurp the file (tensor::read_file),
/// verify magic / version / reserved / size / CRC over the whole payload,
/// then slice entries out with a bounds-checked reader — any mismatch
/// raises a typed ContextError (reason=truncated / bad_magic / bad_version
/// / bad_reserved / crc_mismatch / model_mismatch / bad_entry) naming the
/// file.
inline constexpr char kSegmentMagic[8] = {'M', 'O', 'S', 'S',
                                          'S', 'E', 'G', '1'};
inline constexpr char kManifestMagic[8] = {'M', 'O', 'S', 'S',
                                           'M', 'F', 'T', '1'};
inline constexpr std::uint32_t kSegmentVersion = 1;
inline constexpr std::size_t kSegmentHeaderBytes = tensor::kFrameHeaderBytes;
/// Manifest basename inside a cache directory.
inline constexpr const char* kManifestName = "MANIFEST.mossmft";

/// One embedding row as it travels through a segment.
struct SegmentEntry {
  std::uint64_t key = 0;
  tensor::Tensor value;
};

/// What save_cache wrote (echoed for logs/metrics).
struct SaveReport {
  std::size_t segments = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;        ///< total payload bytes across segments
  std::size_t removed = 0;      ///< stale segment files garbage-collected
};

/// What load_cache managed to restore. Corrupt or mismatched segments are
/// counted and skipped — a damaged cache directory degrades to a (partly)
/// cold start, it never takes the shard down.
struct LoadReport {
  std::size_t segments_loaded = 0;
  std::size_t segments_rejected = 0;  ///< failed validation, skipped
  std::size_t entries = 0;            ///< entries inserted into the cache
  /// First rejection's rendered error (empty when none) — surfaced so
  /// operators see *why* a restart came up colder than expected.
  std::string first_error;
};

/// Serialize entries into one segment blob (header + payload).
std::string serialize_segment(std::uint64_t model_fingerprint,
                              const std::vector<SegmentEntry>& entries);

/// Parse + integrity-check one segment blob. `expect_fingerprint` of 0
/// accepts any model; otherwise a mismatch fails typed
/// (reason=model_mismatch) — embeddings from different parameters must
/// never warm a cache keyed for this model. `ctx` frames (file=…) prefix
/// every error.
std::vector<SegmentEntry> deserialize_segment(
    std::string_view blob, std::uint64_t expect_fingerprint,
    ErrorContext ctx);

/// Snapshot `cache` into `dir` as a fresh segment generation:
/// content-addressed segment files of at most `max_segment_bytes` payload
/// each, then the manifest, all atomically; finally GC any *.mossseg not in
/// the new manifest. Creates `dir` if needed. Entries bigger than
/// max_segment_bytes get a segment of their own.
SaveReport save_cache(const std::string& dir,
                      const serve::EmbeddingCache& cache,
                      std::uint64_t model_fingerprint,
                      std::size_t max_segment_bytes = 4u << 20);

/// Restore a cache directory written by save_cache: read the manifest (fall
/// back to every *.mossseg in the directory, sorted, when the manifest is
/// missing or unreadable), load each segment, and put() every entry whose
/// segment validates. Per-segment failures are skipped and counted;
/// load_cache itself only throws on programmer error (never on bad data).
LoadReport load_cache(const std::string& dir, serve::EmbeddingCache& cache,
                      std::uint64_t model_fingerprint);

}  // namespace moss::cluster
