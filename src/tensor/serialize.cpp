#include "tensor/serialize.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core_util/check.hpp"
#include "core_util/crc32.hpp"
#include "core_util/fault.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace moss::tensor {

namespace {

constexpr char kMagicV0[8] = {'M', 'O', 'S', 'S', 'C', 'K', 'P', 'T'};
constexpr char kMagicV1[8] = {'M', 'O', 'S', 'S', 'C', 'K', 'P', '1'};

/// Upper bounds that turn a corrupted length field into an immediate
/// structured error instead of a multi-gigabyte allocation.
constexpr std::uint64_t kMaxSections = 1u << 20;
constexpr std::uint64_t kMaxNameLen = 1u << 12;

void put_u32(std::string& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_u64(std::string& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

/// Everything left in `in`, copied through the stream buffer in bulk.
std::string slurp(std::istream& in) {
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

}  // namespace

// ---------------------------------------------------------------------------
// ByteWriter / ByteReader
// ---------------------------------------------------------------------------

void ByteWriter::u32(std::uint32_t v) { put_u32(buf_, v); }
void ByteWriter::u64(std::uint64_t v) { put_u64(buf_, v); }

void ByteWriter::f32(float v) {
  char raw[4];
  std::memcpy(raw, &v, 4);
  buf_.append(raw, 4);
}

void ByteWriter::f64(double v) {
  char raw[8];
  std::memcpy(raw, &v, 8);
  buf_.append(raw, 8);
}

void ByteWriter::str(std::string_view s) {
  u64(s.size());
  buf_.append(s.data(), s.size());
}

void ByteWriter::f32s(const std::vector<float>& v) {
  u64(v.size());
  bytes(v.data(), v.size() * sizeof(float));
}

void ByteWriter::f64s(const std::vector<double>& v) {
  u64(v.size());
  bytes(v.data(), v.size() * sizeof(double));
}

void ByteWriter::u64s(const std::vector<std::uint64_t>& v) {
  u64(v.size());
  for (const std::uint64_t x : v) u64(x);
}

void ByteWriter::bytes(const void* p, std::size_t n) {
  buf_.append(static_cast<const char*>(p), n);
}

const char* ByteReader::need(std::size_t n) {
  if (pos_ + n > data_.size()) {
    ctx_.fail("checkpoint section truncated (need " + std::to_string(n) +
              " bytes, " + std::to_string(data_.size() - pos_) + " left)");
  }
  const char* p = data_.data() + pos_;
  pos_ += n;
  return p;
}

std::uint8_t ByteReader::u8() {
  return static_cast<std::uint8_t>(*need(1));
}

std::uint32_t ByteReader::u32() {
  const char* p = need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t ByteReader::u64() {
  const char* p = need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

float ByteReader::f32() {
  float v;
  std::memcpy(&v, need(4), 4);
  return v;
}

double ByteReader::f64() {
  double v;
  std::memcpy(&v, need(8), 8);
  return v;
}

std::string ByteReader::str() {
  const std::uint64_t n = u64();
  if (n > kMaxNameLen) ctx_.fail("unreasonable string length in checkpoint");
  const char* p = need(static_cast<std::size_t>(n));
  return std::string(p, static_cast<std::size_t>(n));
}

std::vector<float> ByteReader::f32s() {
  const std::uint64_t n = u64();
  if (n * sizeof(float) > remaining()) {
    ctx_.fail("float array length exceeds section size");
  }
  std::vector<float> v(static_cast<std::size_t>(n));
  std::memcpy(v.data(), need(v.size() * sizeof(float)),
              v.size() * sizeof(float));
  return v;
}

std::vector<double> ByteReader::f64s() {
  const std::uint64_t n = u64();
  if (n * sizeof(double) > remaining()) {
    ctx_.fail("double array length exceeds section size");
  }
  std::vector<double> v(static_cast<std::size_t>(n));
  std::memcpy(v.data(), need(v.size() * sizeof(double)),
              v.size() * sizeof(double));
  return v;
}

std::vector<std::uint64_t> ByteReader::u64s() {
  const std::uint64_t n = u64();
  if (n * 8 > remaining()) ctx_.fail("u64 array length exceeds section size");
  std::vector<std::uint64_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = u64();
  return v;
}

void ByteReader::expect_end() const {
  if (pos_ != data_.size()) {
    ErrorContext c = ctx_;
    c.fail("trailing bytes in checkpoint section (" +
           std::to_string(data_.size() - pos_) + " unread)");
  }
}

// ---------------------------------------------------------------------------
// Single-payload frame (MOSSPLN1, MOSSSEG1, MOSSMFT1)
// ---------------------------------------------------------------------------

std::string frame(const char (&magic)[8], std::uint32_t version,
                  std::string_view payload) {
  ByteWriter w;
  w.bytes(magic, sizeof(magic));
  w.u32(version);
  w.u32(0);  // reserved
  w.u64(payload.size());
  w.u32(crc32(payload));
  std::string out = w.take();
  out += payload;
  return out;
}

std::string_view unframe(const char (&magic)[8], std::uint32_t version,
                         std::string_view blob, const ErrorContext& ctx) {
  const auto fail = [&](const char* reason, const std::string& msg) {
    ErrorContext c = ctx;
    c.add("reason", reason).fail(msg);
  };
  if (blob.size() < kFrameHeaderBytes) fail("truncated", "truncated header");
  if (std::memcmp(blob.data(), magic, sizeof(magic)) != 0) {
    fail("bad_magic", "unrecognized file magic");
  }
  ByteReader r(blob.substr(sizeof(magic), kFrameHeaderBytes - sizeof(magic)),
               ctx);
  const std::uint32_t got_version = r.u32();
  const std::uint32_t reserved = r.u32();
  const std::uint64_t payload_bytes = r.u64();
  const std::uint32_t expect_crc = r.u32();
  if (got_version != version) {
    ErrorContext c = ctx;
    c.add("reason", "bad_version")
        .add("version", std::to_string(got_version))
        .fail("unsupported format version");
  }
  if (reserved != 0) fail("bad_reserved", "header reserved field must be zero");
  const std::string_view payload = blob.substr(kFrameHeaderBytes);
  if (payload.size() != payload_bytes) {
    ErrorContext c = ctx;
    c.add("reason", "truncated")
        .add("expected_bytes", std::to_string(payload_bytes))
        .add("actual_bytes", std::to_string(payload.size()))
        .fail("payload size mismatch");
  }
  if (crc32(payload) != expect_crc) {
    fail("crc_mismatch", "payload checksum mismatch");
  }
  return payload;
}

// ---------------------------------------------------------------------------
// CheckpointFile
// ---------------------------------------------------------------------------

void CheckpointFile::set(const std::string& name, std::string payload) {
  for (auto& s : sections_) {
    if (s.first == name) {
      s.second = std::move(payload);
      return;
    }
  }
  sections_.emplace_back(name, std::move(payload));
}

bool CheckpointFile::has(const std::string& name) const {
  for (const auto& s : sections_) {
    if (s.first == name) return true;
  }
  return false;
}

const std::string& CheckpointFile::get(const std::string& name,
                                       const ErrorContext& ctx) const {
  for (const auto& s : sections_) {
    if (s.first == name) return s.second;
  }
  ErrorContext c = ctx;
  c.add("section", name);
  c.fail("checkpoint section missing");
}

void CheckpointFile::write(std::ostream& out) const {
  out.write(kMagicV1, sizeof kMagicV1);
  std::string header;
  put_u32(header, kCheckpointVersion);
  put_u32(header, static_cast<std::uint32_t>(sections_.size()));
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  for (const auto& [name, payload] : sections_) {
    MOSS_FAULT_POINT("serialize.write_section");
    std::string head;
    put_u64(head, name.size());
    head += name;
    put_u64(head, payload.size());
    put_u32(head, crc32(payload));
    out.write(head.data(), static_cast<std::streamsize>(head.size()));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  }
  if (!out.good()) {
    throw ContextError("checkpoint write failed (stream error)");
  }
}

CheckpointFile CheckpointFile::read(std::istream& in, ErrorContext ctx) {
  return read_string(slurp(in), std::move(ctx));
}

CheckpointFile CheckpointFile::read_string(std::string_view bytes,
                                           ErrorContext ctx) {
  ErrorContext hdr = ctx;
  hdr.add("section", "header");
  hdr.check(bytes.size() >= sizeof kMagicV1 + 8, "checkpoint truncated");
  hdr.check(std::memcmp(bytes.data(), kMagicV1, sizeof kMagicV1) == 0,
            "not a MOSS checkpoint (bad magic)");
  ByteReader header(bytes.substr(8), hdr);
  const std::uint32_t version = header.u32();
  if (version != kCheckpointVersion) {
    ErrorContext c = hdr;
    c.fail("unsupported checkpoint format version " +
           std::to_string(version) + " (expected " +
           std::to_string(kCheckpointVersion) + ")");
  }
  const std::uint32_t count = header.u32();
  hdr.check(count <= kMaxSections, "unreasonable checkpoint section count");

  CheckpointFile ckpt;
  std::size_t pos = 8 + 8;  // magic + version/count
  for (std::uint32_t i = 0; i < count; ++i) {
    ErrorContext sec = ctx;
    sec.add("section", "#" + std::to_string(i));
    ByteReader head(bytes.substr(pos), sec);
    const std::string name = head.str();
    sec.set("section", name.empty() ? "#" + std::to_string(i) : name);
    ByteReader sized(bytes.substr(pos + 8 + name.size()), sec);
    const std::uint64_t payload_len = sized.u64();
    const std::uint32_t stored_crc = sized.u32();
    const std::size_t payload_at = pos + 8 + name.size() + 8 + 4;
    sec.check(payload_at + payload_len <= bytes.size(),
              "checkpoint section truncated (payload of " +
                  std::to_string(payload_len) + " bytes extends past end)");
    const std::string_view payload = bytes.substr(payload_at,
                                                  payload_len);
    if (crc32(payload) != stored_crc) {
      sec.fail("checkpoint section crc mismatch (corrupt payload)");
    }
    sec.check(!ckpt.has(name), "duplicate checkpoint section");
    ckpt.set(name, std::string(payload));
    pos = payload_at + payload_len;
  }
  if (pos != bytes.size()) {
    ErrorContext c = ctx;
    c.add("section", "trailer");
    c.fail("trailing bytes after last checkpoint section (" +
           std::to_string(bytes.size() - pos) + " unread)");
  }
  return ckpt;
}

// ---------------------------------------------------------------------------
// ParameterSet <-> sections
// ---------------------------------------------------------------------------

void params_to_checkpoint(CheckpointFile& ckpt, const ParameterSet& params) {
  ByteWriter manifest;
  manifest.u64(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Tensor& t = params.tensors()[i];
    manifest.str(params.names()[i]);
    manifest.u64(t.rows());
    manifest.u64(t.cols());
  }
  ckpt.set("manifest", manifest.take());
  for (std::size_t i = 0; i < params.size(); ++i) {
    ByteWriter w;
    w.f32s(params.tensors()[i].data());
    ckpt.set("param:" + params.names()[i], w.take());
  }
}

void params_from_checkpoint(const CheckpointFile& ckpt, ParameterSet& params,
                            const ErrorContext& ctx) {
  ErrorContext mctx = ctx;
  mctx.add("section", "manifest");
  ByteReader manifest(ckpt.get("manifest", ctx), mctx);
  const std::uint64_t count = manifest.u64();
  mctx.check(count == params.size(),
             "checkpoint has " + std::to_string(count) +
                 " parameters, model has " + std::to_string(params.size()));

  // Validate the whole manifest and stage every payload before writing a
  // single float into the destination set.
  std::vector<std::vector<float>> staged(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const std::string name = manifest.str();
    const std::uint64_t rows = manifest.u64();
    const std::uint64_t cols = manifest.u64();
    ErrorContext pctx = mctx;
    pctx.add("param", name);
    pctx.check(name == params.names()[i],
               "checkpoint parameter order mismatch: expected '" +
                   params.names()[i] + "'");
    const Tensor& t = params.tensors()[i];
    pctx.check(rows == t.rows() && cols == t.cols(),
               "checkpoint shape mismatch: stored " + std::to_string(rows) +
                   "x" + std::to_string(cols) + ", model needs " +
                   std::to_string(t.rows()) + "x" +
                   std::to_string(t.cols()));
    ErrorContext sctx = ctx;
    sctx.add("section", "param:" + name);
    sctx.add("param", name);
    ByteReader pr(ckpt.get("param:" + name, sctx), sctx);
    staged[i] = pr.f32s();
    pr.expect_end();
    sctx.check(staged[i].size() == t.size(),
               "checkpoint data size mismatch: " +
                   std::to_string(staged[i].size()) + " floats for a " +
                   std::to_string(t.rows()) + "x" +
                   std::to_string(t.cols()) + " tensor");
  }
  manifest.expect_end();
  for (std::size_t i = 0; i < params.size(); ++i) {
    params.tensors()[i].data() = std::move(staged[i]);
  }
}

void adam_to_checkpoint(CheckpointFile& ckpt, const Adam::Snapshot& snap) {
  ByteWriter w;
  w.u64(static_cast<std::uint64_t>(snap.t));
  w.u64(snap.m.size());
  for (std::size_t i = 0; i < snap.m.size(); ++i) {
    w.f32s(snap.m[i]);
    w.f32s(snap.v[i]);
  }
  ckpt.set("adam", w.take());
}

Adam::Snapshot adam_from_checkpoint(const CheckpointFile& ckpt,
                                    const ErrorContext& ctx) {
  ErrorContext actx = ctx;
  actx.add("section", "adam");
  ByteReader r(ckpt.get("adam", ctx), actx);
  Adam::Snapshot snap;
  snap.t = static_cast<std::int64_t>(r.u64());
  const std::uint64_t n = r.u64();
  actx.check(n <= kMaxSections, "unreasonable optimizer moment count");
  snap.m.resize(static_cast<std::size_t>(n));
  snap.v.resize(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    snap.m[i] = r.f32s();
    snap.v[i] = r.f32s();
  }
  r.expect_end();
  return snap;
}

// ---------------------------------------------------------------------------
// Stream-level parameter checkpointing (v1 write, v0/v1 read)
// ---------------------------------------------------------------------------

void save_parameters(std::ostream& out, const ParameterSet& params) {
  CheckpointFile ckpt;
  params_to_checkpoint(ckpt, params);
  ckpt.write(out);
}

namespace {

/// Legacy v0 loader: magic | u64 count | per param: u64 name_len, name,
/// u64 rows, u64 cols, f32 data. No checksums — but every read is bounds-
/// checked and all data is staged before committing, so a truncated or
/// malformed v0 file raises instead of leaving params partially written.
void load_parameters_v0(std::string_view body, ParameterSet& params,
                        const ErrorContext& ctx) {
  ErrorContext v0 = ctx;
  v0.add("section", "v0");
  ByteReader r(body, v0);
  const std::uint64_t count = r.u64();
  v0.check(count == params.size(),
           "checkpoint has " + std::to_string(count) +
               " parameters, model has " + std::to_string(params.size()));
  std::vector<std::vector<float>> staged(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const std::string name = r.str();
    ErrorContext pctx = v0;
    pctx.add("param", name);
    pctx.check(name == params.names()[i],
               "checkpoint parameter order mismatch: expected '" +
                   params.names()[i] + "'");
    const std::uint64_t rows = r.u64();
    const std::uint64_t cols = r.u64();
    Tensor& t = params.tensors()[i];
    pctx.check(rows == t.rows() && cols == t.cols(),
               "checkpoint shape mismatch");
    std::vector<float> data(t.size());
    if (r.remaining() < data.size() * sizeof(float)) {
      pctx.fail("checkpoint truncated in parameter data");
    }
    for (auto& f : data) f = r.f32();
    staged[i] = std::move(data);
  }
  r.expect_end();
  for (std::size_t i = 0; i < params.size(); ++i) {
    params.tensors()[i].data() = std::move(staged[i]);
  }
}

void load_parameters_impl(std::istream& in, ParameterSet& params,
                          const ErrorContext& ctx) {
  const std::string bytes = slurp(in);
  if (bytes.size() >= 8 &&
      std::memcmp(bytes.data(), kMagicV0, sizeof kMagicV0) == 0) {
    load_parameters_v0(std::string_view(bytes).substr(8), params, ctx);
    return;
  }
  const CheckpointFile ckpt =
      CheckpointFile::read_string(bytes, ctx);
  params_from_checkpoint(ckpt, params, ctx);
}

}  // namespace

void load_parameters(std::istream& in, ParameterSet& params) {
  load_parameters_impl(in, params, ErrorContext{});
}

// ---------------------------------------------------------------------------
// Crash-safe file I/O
// ---------------------------------------------------------------------------

namespace {

#if defined(__unix__) || defined(__APPLE__)
void fsync_path(const std::string& path, bool directory) {
  const int fd = ::open(path.c_str(), directory ? O_RDONLY : O_WRONLY);
  if (fd < 0) return;  // fsync is best-effort hardening, not correctness
  ::fsync(fd);
  ::close(fd);
}
#else
void fsync_path(const std::string&, bool) {}
#endif

std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".")
                                    : path.substr(0, slash + 1);
}

}  // namespace

void atomic_write_file(const std::string& path,
                       const std::function<void(std::ostream&)>& producer) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      throw ContextError("cannot open checkpoint temp file for writing",
                         {{"file", tmp}});
    }
    try {
      producer(out);
    } catch (const ContextError& e) {
      // Torn temp files are expected on failure; the real file is intact.
      out.close();
      if (!e.context_value("file").empty()) throw;
      auto ctx = e.context();
      ctx.emplace_back("file", tmp);
      throw ContextError(e.message(), std::move(ctx));
    }
    out.flush();
    if (!out.good()) {
      std::remove(tmp.c_str());
      throw ContextError("short write to checkpoint temp file",
                         {{"file", tmp}});
    }
  }
  fsync_path(tmp, /*directory=*/false);
  MOSS_FAULT_POINT("serialize.rename");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw ContextError("atomic rename of checkpoint failed",
                       {{"file", path}});
  }
  fsync_path(parent_dir(path), /*directory=*/true);
}

void save_parameters_file(const std::string& path,
                          const ParameterSet& params) {
  CheckpointFile ckpt;
  params_to_checkpoint(ckpt, params);
  write_checkpoint_file(path, ckpt);
}

void load_parameters_file(const std::string& path, ParameterSet& params) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    throw ContextError("cannot open checkpoint", {{"file", path}});
  }
  ErrorContext ctx;
  ctx.add("file", path);
  load_parameters_impl(in, params, ctx);
}

void write_checkpoint_file(const std::string& path,
                           const CheckpointFile& ckpt) {
  atomic_write_file(path, [&](std::ostream& out) { ckpt.write(out); });
}

CheckpointFile read_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    throw ContextError("cannot open checkpoint", {{"file", path}});
  }
  ErrorContext ctx;
  ctx.add("file", path);
  return CheckpointFile::read(in, ctx);
}

std::string read_file(const std::string& path, const ErrorContext& ctx) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    ErrorContext c = ctx;
    c.set("file", path);
    c.fail("cannot open file");
  }
  return slurp(in);
}

}  // namespace moss::tensor
