#pragma once

#include <cstdint>
#include <functional>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core_util/error.hpp"
#include "tensor/nn.hpp"

namespace moss::tensor {

/// Checkpoint container format (v1):
///
///   magic "MOSSCKP1" | u32 format_version | u32 section_count
///   per section: u64 name_len, name, u64 payload_bytes, u32 crc32, payload
///
/// All integers little-endian; floats raw IEEE-754. Every section carries
/// its byte count and a CRC32 of its payload, so truncation, bit-flips and
/// torn writes are detected at load time with an error naming the failing
/// section. The legacy v0 format (magic "MOSSCKPT", no version, no
/// checksums) is still read by load_parameters.
inline constexpr std::uint32_t kCheckpointVersion = 1;

/// Little-endian append-only buffer used to build section payloads.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f32(float v);
  void f64(double v);
  /// u64 length + raw bytes.
  void str(std::string_view s);
  /// u64 count + raw floats.
  void f32s(const std::vector<float>& v);
  /// u64 count + raw doubles.
  void f64s(const std::vector<double>& v);
  /// u64 count + u64 values.
  void u64s(const std::vector<std::uint64_t>& v);
  void bytes(const void* p, std::size_t n);

  const std::string& buffer() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked reader over a section payload. Overruns and malformed
/// lengths raise ContextError carrying the reader's context frames (file,
/// section, …) — never a silent short read.
class ByteReader {
 public:
  ByteReader(std::string_view data, ErrorContext ctx)
      : data_(data), ctx_(std::move(ctx)) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  float f32();
  double f64();
  std::string str();
  std::vector<float> f32s();
  std::vector<double> f64s();
  std::vector<std::uint64_t> u64s();

  std::size_t remaining() const { return data_.size() - pos_; }
  /// Fail unless the payload was consumed exactly.
  void expect_end() const;
  const ErrorContext& context() const { return ctx_; }

 private:
  const char* need(std::size_t n);

  std::string_view data_;
  std::size_t pos_ = 0;
  ErrorContext ctx_;
};

/// Single-payload blob frame shared by MOSSPLN1 (plan) and MOSSSEG1 /
/// MOSSMFT1 (cache segments and their manifest):
///
///   magic[8] | u32 format_version | u32 reserved(0)
///   u64 payload_bytes | u32 payload_crc32 | payload
inline constexpr std::size_t kFrameHeaderBytes = 8 + 4 + 4 + 8 + 4;

/// Header + `payload`, with reserved = 0 and the CRC32 of the payload.
std::string frame(const char (&magic)[8], std::uint32_t version,
                  std::string_view payload);

/// Validate a framed blob and return its payload view (into `blob`). Every
/// failure is a typed ContextError carrying `ctx`'s frames plus one of
/// reason=truncated (short header or payload size mismatch), bad_magic,
/// bad_version (with version=…), bad_reserved (nonzero reserved word) or
/// crc_mismatch.
std::string_view unframe(const char (&magic)[8], std::uint32_t version,
                         std::string_view blob, const ErrorContext& ctx);

/// An ordered set of named, checksummed sections — the v1 checkpoint
/// container. Readers verify per-section byte counts and CRC32 before any
/// payload is interpreted.
class CheckpointFile {
 public:
  /// Add or replace a section (insertion order is preserved on write).
  void set(const std::string& name, std::string payload);
  bool has(const std::string& name) const;
  /// Payload of `name`; fails with a structured error naming the missing
  /// section otherwise.
  const std::string& get(const std::string& name,
                         const ErrorContext& ctx) const;
  const std::vector<std::pair<std::string, std::string>>& sections() const {
    return sections_;
  }

  void write(std::ostream& out) const;
  /// Parse and integrity-check an entire v1 stream. `ctx` frames (e.g.
  /// file=path) prefix every error raised.
  static CheckpointFile read(std::istream& in, ErrorContext ctx);
  static CheckpointFile read_string(std::string_view bytes, ErrorContext ctx);

 private:
  std::vector<std::pair<std::string, std::string>> sections_;
};

/// Serialize a ParameterSet as v1 sections ("manifest" + one "param:<name>"
/// section per tensor) into / out of a CheckpointFile. Loading validates
/// the manifest (count, names, shapes) and stages all data before touching
/// the destination — a failed load never leaves `params` partially
/// overwritten.
void params_to_checkpoint(CheckpointFile& ckpt, const ParameterSet& params);
void params_from_checkpoint(const CheckpointFile& ckpt, ParameterSet& params,
                            const ErrorContext& ctx);

/// Adam optimizer state as an "adam" section.
void adam_to_checkpoint(CheckpointFile& ckpt, const Adam::Snapshot& snap);
Adam::Snapshot adam_from_checkpoint(const CheckpointFile& ckpt,
                                    const ErrorContext& ctx);

/// Stream-level parameter checkpointing (v1 on write; v0 or v1 on read).
void save_parameters(std::ostream& out, const ParameterSet& params);
void load_parameters(std::istream& in, ParameterSet& params);

/// Crash-safe file write: `producer` streams into `path + ".tmp"`, which is
/// flushed, fsync'd and atomically renamed over `path`. A crash (or
/// injected fault) at any point leaves the previous `path` intact.
void atomic_write_file(const std::string& path,
                       const std::function<void(std::ostream&)>& producer);

/// File-path wrappers. Saving is atomic (see atomic_write_file); loading
/// errors carry a file=… context frame.
void save_parameters_file(const std::string& path, const ParameterSet& params);
void load_parameters_file(const std::string& path, ParameterSet& params);

/// Atomic write / integrity-checked read of a whole CheckpointFile.
void write_checkpoint_file(const std::string& path, const CheckpointFile& ckpt);
CheckpointFile read_checkpoint_file(const std::string& path);

/// The whole of `path` in one read — the slurp every loader here shares.
/// A missing or unreadable file fails with a ContextError carrying `ctx`'s
/// frames plus file=path.
std::string read_file(const std::string& path, const ErrorContext& ctx);

}  // namespace moss::tensor
