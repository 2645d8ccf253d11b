// Repository benchmark: command-line entry point.
//
//   moss_perfbench --workload serve_cold|serve_warm|train|all --seed N
//                  --seconds S --trace 0|1 --rate-cold R --rate-warm R
//                  [--tiny] [--corrupt-reference]
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones
// of the chosen workload; with --trace 1 the per-layer table. The line
// before it carries the host block, per-phase request accounting and
// sample counts. Exit status 1 on any output mismatch, 2 on bad usage.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace perfbench {
namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "moss_perfbench: %s\nusage: moss_perfbench --workload "
               "serve_cold|serve_warm|train|all --seed N --seconds S "
               "--trace 0|1 --rate-cold R --rate-warm R [--tiny] "
               "[--corrupt-reference]\n",
               why);
  std::exit(2);
}

std::string metrics_json(const std::vector<Metric>& ms,
                         const std::string& prefix = "") {
  std::string s = "{";
  for (const Metric& m : ms) {
    if (s.size() > 1) s += ", ";
    s += json_escape(prefix + m.name) + ": {\"value\": " +
         json_number(m.value) + ", \"unit\": " + json_escape(m.unit) + "}";
  }
  return s + "}";
}

void print_detail(const Options& opt, const std::string& workload,
                  const Result& r) {
  std::string s = "{\"workload\":" + json_escape(workload) +
                  ",\"trace\":" + (opt.trace ? "true" : "false") +
                  ",\"host\":" + host_json(opt);
  for (const auto& [k, v] : r.detail) s += "," + json_escape(k) + ":" + v;
  s += ",\"mismatch_count\":" + std::to_string(r.mismatch_count) +
       ",\"mismatches\":[";
  for (std::size_t i = 0; i < r.mismatches.size(); ++i) {
    s += (i ? "," : "") + json_escape(r.mismatches[i]);
  }
  std::printf("%s]}\n", s.c_str());
  for (const std::string& m : r.mismatches) {
    std::fprintf(stderr, "MISMATCH [%s] %s\n", workload.c_str(), m.c_str());
  }
}

void print_result(const Result& r, const std::string& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
}

Result run_one(const Options& opt, const std::string& workload,
               const Rates& rates) {
  reset_peak_rss();
  if (opt.trace) return run_trace(opt, rates);
  if (workload == "serve_cold") return run_serve(opt, false, rates.cold);
  if (workload == "serve_warm") return run_serve(opt, true, rates.warm);
  return run_train(opt);
}

}  // namespace

Result run_trace(const Options& opt, const Rates& rates) {
  Result out;
  Tracer tr;
  SatTally sat;
  trace_serve(opt, rates, tr, sat, out);
  trace_train(opt, tr, sat, out);
  out.metric("sat.check_ms", tr.median_self_ms("sat.check"), "ms");
  out.metric("sat.conflicts", static_cast<double>(sat.conflicts), "count");
  out.metric("sat.decided_ratio",
             sat.checks == 0 ? 0.0
                             : static_cast<double>(sat.decided) /
                                   static_cast<double>(sat.checks),
             "ratio");
  const std::filesystem::path dir =
      std::filesystem::path(".bench_build") / "trace";
  std::filesystem::create_directories(dir);
  const std::string path =
      (dir / (opt.workload + "-seed" + std::to_string(opt.seed) + ".jsonl"))
          .string();
  if (!tr.write(path)) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
  }
  out.add_detail("spans", "{\"count\":" + std::to_string(tr.spans().size()) +
                              ",\"file\":" + json_escape(path) + "}");
  return out;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  Rates rates;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
      have_seconds = true;
    } else if (a == "--trace") {
      opt.trace = value() == "1";
      have_trace = true;
    } else if (a == "--rate-cold") {
      rates.cold = std::strtod(value().c_str(), nullptr);
    } else if (a == "--rate-warm") {
      rates.warm = std::strtod(value().c_str(), nullptr);
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--corrupt-reference") {
      opt.corrupt_reference = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  const bool known = opt.workload == "serve_cold" ||
                     opt.workload == "serve_warm" ||
                     opt.workload == "train" || opt.workload == "all";
  if (!known) usage("unknown --workload");
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace are required");
  }
  if (!(opt.seconds > 0.0) || !(rates.cold > 0.0) || !(rates.warm > 0.0)) {
    usage("--seconds, --rate-cold and --rate-warm must be positive");
  }
  opt.threads = std::min<std::size_t>(affinity_cpus(), 4);

  try {
    if (opt.workload != "all") {
      const Result r = run_one(opt, opt.workload, rates);
      print_detail(opt, opt.workload, r);
      print_result(r, metrics_json(r.metrics));
      return r.correct ? 0 : 1;
    }
    // Every workload from one process, each with its own peak-RSS window.
    Result all;
    std::vector<Metric> merged;
    for (const char* w : {"serve_cold", "serve_warm", "train"}) {
      Options o = opt;
      o.workload = w;
      const Result r = run_one(o, w, rates);
      print_detail(o, w, r);
      print_result(r, metrics_json(r.metrics));
      all.correct = all.correct && r.correct;
      all.attempted += r.attempted;
      all.failed += r.failed;
      for (const Metric& m : r.metrics) {
        merged.push_back({std::string(w) + "." + m.name, m.value, m.unit});
      }
      if (opt.trace) break;  // the traced run already covers every workload
    }
    print_result(all, metrics_json(merged));
    return all.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "moss_perfbench: %s\n", e.what());
    return 3;
  }
}
