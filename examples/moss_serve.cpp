// moss_serve — batched inference server for MOSS models.
//
//   moss_serve <design>... [--ckpt FILE] [--cache-mb N] [--max-batch N]
//              [--max-delay-ms N] [--threads N] [--socket PATH]
//              [--cache-dir DIR] [--shard-name NAME] [--no-fused-batching]
//
// Boots a warm MossSession (loaded from a `moss_cli train --save`
// checkpoint when --ckpt is given — pass the same design list so the
// encoder fine-tuning reproduces the training-time geometry — otherwise a
// small model is trained in-process), registers the designs as the
// FEP-rank pool, and then speaks the line protocol of serve/protocol.hpp
// over stdin/stdout or, with --socket, over a Unix stream socket (one
// client at a time; QUIT ends the connection, Ctrl-C ends the server).
//
// With --cache-dir the embedding cache is persistent: loaded from MOSSSEG1
// segment files at boot (a respawned shard starts warm) and flushed back
// on SIGTERM/SIGINT or the FLUSH command. Signals shut the server down
// cleanly — drain in-flight requests, persist the cache, exit 0 — which is
// how the moss_cluster supervisor tells an operator stop (no respawn) from
// a crash (respawn).
//
// Example session:
//   $ moss_serve alu:2 crc:2 fifo_ctrl:2
//   ATP alu:2
//   OK ATP n=8 412.0 398.5 ...
//   RANK crc:2
//   OK RANK pool=3 top=crc_pool score=1.8123 ...
//   METRICS
//   OK METRICS
//   ...
//   QUIT
//
// Serving metrics are dumped to stderr on exit.

#include <cerrno>
#include <csignal>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "moss.hpp"

using namespace moss;

namespace {

struct Options {
  std::vector<std::string> designs;
  std::string ckpt;
  std::string socket_path;
  std::string cache_dir;   ///< persistent MOSSSEG1 cache; "" = memory only
  std::string shard_name;  ///< identity echoed in HEALTH lines
  std::size_t cache_mb = 64;
  std::size_t max_batch = 8;
  int max_delay_ms = 2;
  std::size_t threads = 0;
  int max_retries = 2;          ///< retries after the first attempt
  double shed_threshold = 0.75; ///< queue fraction; >=1 disables shedding
  bool allow_stale = false;
  bool no_fused = false;  ///< disable cross-request fused batching
};

void usage() {
  std::fputs(
      "usage: moss_serve <design>... [--ckpt FILE] [--cache-mb N]\n"
      "       [--max-batch N] [--max-delay-ms N] [--threads N]\n"
      "       [--socket PATH] [--max-retries N] [--shed-threshold F]\n"
      "       [--allow-stale] [--cache-dir DIR] [--shard-name NAME]\n"
      "       [--no-fused-batching]\n"
      "<design> = verilog file (*.v) or family:size (e.g. alu:2)\n"
      "--no-fused-batching dispatches every request through the sequential\n"
      "per-request path.\n",
      stderr);
}

// SIGTERM/SIGINT request a clean shutdown: drain, persist the cache, exit
// 0. Installed WITHOUT SA_RESTART so blocking accept()/read() return EINTR
// and the serving loops notice the flag instead of blocking forever.
volatile std::sig_atomic_t g_shutdown = 0;

void on_terminate(int) { g_shutdown = 1; }

void install_shutdown_handlers() {
  struct sigaction sa {};
  sa.sa_handler = on_terminate;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

/// Must mirror `moss_cli train` exactly (model shape, encoder config,
/// fine-tune budget, spec naming), so checkpoints saved there load here
/// with identical parameter shapes and encoder geometry.
core::WorkflowConfig cli_compatible_config() {
  core::WorkflowConfig cfg;
  cfg.model.hidden = 16;
  cfg.model.rounds = 1;
  cfg.dataset.sim_cycles = 400;
  cfg.encoder = {2048, 16, 9};
  cfg.fine_tune.epochs = 1;
  cfg.fine_tune.max_pairs_per_epoch = 20000;
  cfg.pretrain.epochs = 6;
  cfg.align.epochs = 6;
  return cfg;
}

data::DesignSpec spec_for(const std::string& token, std::size_t index) {
  const auto colon = token.find(':');
  data::DesignSpec spec;
  spec.family = colon == std::string::npos ? token : token.substr(0, colon);
  spec.size_hint =
      colon == std::string::npos ? 2 : std::atoi(token.c_str() + colon + 1);
  spec.seed = 1;
  spec.name = spec.family + "_cli" + std::to_string(index);
  return spec;
}

std::shared_ptr<const data::LabeledCircuit> load_token(
    const std::string& token, std::size_t index,
    const data::DatasetConfig& dcfg) {
  if (token.size() > 2 && token.substr(token.size() - 2) == ".v") {
    std::FILE* f = std::fopen(token.c_str(), "rb");
    if (f == nullptr) return nullptr;
    std::string src;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) src.append(buf, n);
    std::fclose(f);
    return std::make_shared<data::LabeledCircuit>(data::label_module(
        rtl::parse_verilog(src), cell::standard_library(), dcfg));
  }
  return std::make_shared<data::LabeledCircuit>(data::label_circuit(
      spec_for(token, index), cell::standard_library(), dcfg));
}

/// Write all of `data`, retrying short writes and EINTR. Returns false when
/// the client is gone (EPIPE/ECONNRESET) or on any other write error.
bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t w = write(fd, data.data() + off, data.size() - off);
    if (w < 0) {
      if (errno == EINTR) continue;  // signal during write: retry
      if (errno != EPIPE && errno != ECONNRESET) std::perror("write");
      return false;  // client hung up (or unrecoverable error): drop it
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

/// Serve one Unix-socket client with its own protocol handler. The line
/// buffer is bounded by ProtocolConfig::max_line_bytes: a client streaming
/// an endless line gets a typed "ERR bad_request" and the excess is
/// discarded instead of buffered — the server's memory no longer belongs
/// to its least honest client.
void serve_connection(int fd, serve::InferenceEngine& engine,
                      const serve::ProtocolConfig& pcfg) {
  serve::ProtocolHandler handler(engine, pcfg);
  const std::size_t cap = std::max<std::size_t>(16, pcfg.max_line_bytes);
  std::string pending;
  char buf[4096];
  bool quit = false;
  bool discarding = false;  // inside an oversize line, dropping to newline
  while (!quit) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) {
      if (g_shutdown) break;
      continue;
    }
    if (n <= 0) break;  // EOF or read error: client gone
    pending.append(buf, static_cast<std::size_t>(n));
    if (discarding) {
      const std::size_t nl = pending.find('\n');
      if (nl == std::string::npos) {
        pending.clear();
        continue;
      }
      pending.erase(0, nl + 1);
      discarding = false;
    }
    std::size_t nl;
    while (!quit && (nl = pending.find('\n')) != std::string::npos) {
      const std::string line = pending.substr(0, nl);
      pending.erase(0, nl + 1);
      if (line.empty()) continue;
      if (!write_all(fd, handler.handle_line(line, &quit) + "\n")) {
        quit = true;
      }
    }
    if (!quit && pending.size() > cap) {
      char msg[96];
      std::snprintf(msg, sizeof(msg),
                    "ERR bad_request line exceeds %zu byte limit\n", cap);
      if (!write_all(fd, msg)) break;
      pending.clear();
      discarding = true;
    }
  }
  close(fd);
}

int run_socket_server(const std::string& path, serve::InferenceEngine& engine,
                      const serve::ProtocolConfig& pcfg) {
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("socket");
    return 2;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "socket path too long: %s\n", path.c_str());
    return 2;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  unlink(path.c_str());
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd, 8) != 0) {
    std::perror("bind/listen");
    close(fd);
    return 2;
  }
  std::fprintf(stderr, "moss_serve: listening on %s\n", path.c_str());
  while (!g_shutdown) {
    const int client = accept(fd, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;  // re-check g_shutdown, else re-accept
      break;
    }
    serve_connection(client, engine, pcfg);
  }
  close(fd);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--ckpt") {
      const char* v = next();
      if (v == nullptr) { usage(); return 2; }
      opt.ckpt = v;
    } else if (a == "--socket") {
      const char* v = next();
      if (v == nullptr) { usage(); return 2; }
      opt.socket_path = v;
    } else if (a == "--cache-mb") {
      const char* v = next();
      if (v == nullptr) { usage(); return 2; }
      opt.cache_mb = static_cast<std::size_t>(std::atoi(v));
    } else if (a == "--max-batch") {
      const char* v = next();
      if (v == nullptr) { usage(); return 2; }
      opt.max_batch = static_cast<std::size_t>(std::max(1, std::atoi(v)));
    } else if (a == "--max-delay-ms") {
      const char* v = next();
      if (v == nullptr) { usage(); return 2; }
      opt.max_delay_ms = std::max(0, std::atoi(v));
    } else if (a == "--threads") {
      const char* v = next();
      if (v == nullptr) { usage(); return 2; }
      opt.threads = static_cast<std::size_t>(std::max(0, std::atoi(v)));
    } else if (a == "--max-retries") {
      const char* v = next();
      if (v == nullptr) { usage(); return 2; }
      opt.max_retries = std::max(0, std::atoi(v));
    } else if (a == "--shed-threshold") {
      const char* v = next();
      if (v == nullptr) { usage(); return 2; }
      opt.shed_threshold = std::atof(v);
    } else if (a == "--cache-dir") {
      const char* v = next();
      if (v == nullptr) { usage(); return 2; }
      opt.cache_dir = v;
    } else if (a == "--shard-name") {
      const char* v = next();
      if (v == nullptr) { usage(); return 2; }
      opt.shard_name = v;
    } else if (a == "--allow-stale") {
      opt.allow_stale = true;
    } else if (a == "--no-fused-batching") {
      opt.no_fused = true;
    } else if (a.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option %s\n", a.c_str());
      usage();
      return 2;
    } else {
      opt.designs.push_back(a);
    }
  }
  if (opt.designs.empty()) {
    usage();
    return 2;
  }
  // A client that disconnects mid-response must not kill the server with
  // SIGPIPE; write() returns EPIPE instead, which write_all() handles.
  std::signal(SIGPIPE, SIG_IGN);
  install_shutdown_handlers();

  try {
    const core::WorkflowConfig cfg = cli_compatible_config();

    // Label the pool designs (they double as the encoder corpus).
    // Mirror `moss_cli train` circuit ordering exactly: .v modules in CLI
    // order first, then generated specs numbered by generated-only index —
    // the fine-tune corpus must match for checkpoint shapes to reproduce.
    std::vector<std::shared_ptr<const data::LabeledCircuit>> vmods, gens;
    std::vector<std::string> vtokens, gtokens;
    std::size_t gen_index = 0;
    for (const std::string& token : opt.designs) {
      const bool is_file =
          token.size() > 2 && token.substr(token.size() - 2) == ".v";
      auto lc = load_token(token, is_file ? 0 : gen_index, cfg.dataset);
      if (!lc) {
        std::fprintf(stderr, "cannot load design %s\n", token.c_str());
        return 2;
      }
      if (is_file) {
        vmods.push_back(std::move(lc));
        vtokens.push_back(token);
      } else {
        ++gen_index;
        gens.push_back(std::move(lc));
        gtokens.push_back(token);
      }
    }
    std::vector<std::shared_ptr<const data::LabeledCircuit>> circuits = vmods;
    circuits.insert(circuits.end(), gens.begin(), gens.end());
    std::vector<std::string> tokens = vtokens;
    tokens.insert(tokens.end(), gtokens.begin(), gtokens.end());

    serve::ModelRegistry registry;
    std::shared_ptr<const serve::MossSession> session;
    std::unique_ptr<core::MossWorkflow> trained;  // self-train mode owner
    if (!opt.ckpt.empty()) {
      std::vector<std::string> corpus;
      for (const auto& lc : circuits) corpus.push_back(lc->module_text);
      session = serve::MossSession::load(cfg, corpus, opt.ckpt);
      std::fprintf(stderr, "moss_serve: loaded %s\n", opt.ckpt.c_str());
    } else {
      std::fprintf(stderr,
                   "moss_serve: no --ckpt, training a small model on %zu "
                   "design(s)...\n",
                   circuits.size());
      trained = std::make_unique<core::MossWorkflow>(cfg);
      for (const auto& lc : circuits) trained->add_circuit(*lc);
      trained->fit();
      session = serve::MossSession::adopt(trained->model(),
                                          trained->encoder());
    }
    registry.install("default", session);

    serve::EmbeddingCache cache(opt.cache_mb << 20);
    serve::EngineConfig ecfg;
    ecfg.max_batch = opt.max_batch;
    ecfg.max_delay_ms = opt.max_delay_ms;
    ecfg.threads = opt.threads;
    ecfg.admission.enabled = opt.shed_threshold < 1.0;
    ecfg.admission.shed_queue_fraction = opt.shed_threshold;
    ecfg.allow_stale = opt.allow_stale;
    ecfg.fused_batching = !opt.no_fused;
    serve::InferenceEngine engine(registry, &cache, ecfg);

    // Persistent cache: warm-start from the previous generation's MOSSSEG1
    // segments. Keys are fingerprint-derived, so entries only hit when the
    // reloaded checkpoint is bit-identical to the one that wrote them;
    // corrupt or mismatched segments cost only themselves (cold keys).
    if (!opt.cache_dir.empty()) {
      const cluster::LoadReport lr =
          cluster::load_cache(opt.cache_dir, cache, session->fingerprint());
      std::fprintf(stderr,
                   "moss_serve: cache warm-start from %s: segments=%zu "
                   "entries=%zu rejected=%zu\n",
                   opt.cache_dir.c_str(), lr.segments_loaded, lr.entries,
                   lr.segments_rejected);
      if (!lr.first_error.empty()) {
        std::fprintf(stderr, "moss_serve: (cold fallback) %s\n",
                     lr.first_error.c_str());
      }
    }

    // The command-line designs form the FEP-rank pool.
    std::vector<std::shared_ptr<const core::CircuitBatch>> pool;
    for (const auto& lc : circuits) {
      pool.push_back(
          std::make_shared<core::CircuitBatch>(session->build(*lc)));
    }
    engine.register_pool("pool", pool);

    serve::ProtocolConfig pcfg;
    pcfg.retry.max_attempts = 1 + opt.max_retries;
    pcfg.retry_budget = std::make_shared<serve::RetryBudget>();
    const data::DatasetConfig dcfg = cfg.dataset;
    std::size_t dynamic_index = gen_index;
    // Tokens already labeled at boot resolve to the boot circuits; new
    // tokens are labeled on demand.
    auto boot = std::make_shared<
        std::unordered_map<std::string,
                           std::shared_ptr<const data::LabeledCircuit>>>();
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      (*boot)[tokens[i]] = circuits[i];
    }
    pcfg.load_design =
        [boot, dcfg, &dynamic_index](const std::string& token)
        -> std::shared_ptr<const data::LabeledCircuit> {
      const auto it = boot->find(token);
      if (it != boot->end()) return it->second;
      return load_token(token, dynamic_index++, dcfg);
    };
    pcfg.shard_name = opt.shard_name;
    if (!opt.cache_dir.empty()) {
      const std::string dir = opt.cache_dir;
      serve::EmbeddingCache* cache_ptr = &cache;
      const std::uint64_t fp = session->fingerprint();
      pcfg.flush = [dir, cache_ptr, fp]() -> std::string {
        const cluster::SaveReport sr = cluster::save_cache(dir, *cache_ptr, fp);
        char buf[96];
        std::snprintf(buf, sizeof(buf), "segments=%zu entries=%zu",
                      sr.segments, sr.entries);
        return buf;
      };
    }

    int rc = 0;
    if (!opt.socket_path.empty()) {
      rc = run_socket_server(opt.socket_path, engine, pcfg);
    } else {
      serve::ProtocolHandler handler(engine, pcfg);
      const std::size_t handled = handler.run(std::cin, std::cout);
      std::fprintf(stderr, "moss_serve: handled %zu request(s)\n", handled);
    }

    // Clean shutdown: drain in-flight batches, persist the cache, exit 0.
    // The moss_cluster supervisor treats exit 0 as operator intent (no
    // respawn); anything else — including SIGKILL, which never gets here —
    // is a crash and respawns.
    engine.stop();
    if (!opt.cache_dir.empty()) {
      const cluster::SaveReport sr =
          cluster::save_cache(opt.cache_dir, cache, session->fingerprint());
      std::fprintf(stderr,
                   "moss_serve: cache flushed to %s: segments=%zu "
                   "entries=%zu\n",
                   opt.cache_dir.c_str(), sr.segments, sr.entries);
    }
    std::fputs(engine.metrics_text().c_str(), stderr);
    if (g_shutdown) {
      std::fprintf(stderr, "moss_serve: clean shutdown (signal)\n");
      return 0;
    }
    return rc;
  } catch (const ContextError& e) {
    std::fprintf(stderr, "checkpoint error: %s\n", e.what());
    return 3;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
