#include "common.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "tensor/kernels.hpp"

namespace perfbench {

// Defined in isa.cpp, which is compiled with the kernel layer's ISA flags.
std::string kernel_isa_flags();

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  if (std::isinf(v[hi]) || lo == hi) return v[hi];
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double segment_quantile(const std::vector<double>& v, double q,
                        std::string* beyond, std::size_t seg) {
  const std::size_t n = v.size();
  const std::size_t segs = std::max<std::size_t>(1, n / seg);
  std::vector<double> per;
  if (beyond != nullptr) *beyond = "[";
  for (std::size_t g = 0; g < segs; ++g) {
    const std::vector<double> part(
        v.begin() + static_cast<std::ptrdiff_t>(g * n / segs),
        v.begin() + static_cast<std::ptrdiff_t>((g + 1) * n / segs));
    per.push_back(quantile(part, q));
    if (beyond != nullptr) {
      const auto above = std::count_if(
          part.begin(), part.end(), [&](double x) { return x > per.back(); });
      *beyond += (g > 0 ? "," : "") + std::to_string(above) + "/" +
                 std::to_string(part.size());
    }
  }
  if (beyond != nullptr) *beyond += "]";
  return median(per);
}

std::uint64_t PhaseCount::refused_total() const {
  std::uint64_t n = 0;
  for (const auto& [reason, count] : refused) n += count;
  return n;
}

void PhaseCount::add_error(const std::string& reason, bool at_submit) {
  // Typed refusals are the engine saying "not now"; anything raised after
  // admission is a failure of the request itself.
  if (at_submit || reason == "deadline_expired") {
    ++refused[reason.empty() ? "other" : reason];
  } else {
    ++failed;
  }
}

void PhaseCount::merge(const PhaseCount& o) {
  sent += o.sent;
  succeeded += o.succeeded;
  failed += o.failed;
  for (const auto& [reason, count] : o.refused) refused[reason] += count;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return "\"" + out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string phase_json(const PhaseCount& p) {
  std::string refused = "{";
  for (const auto& [reason, count] : p.refused) {
    if (refused.size() > 1) refused += ",";
    refused += json_escape(reason) + ":" + std::to_string(count);
  }
  refused += "}";
  return "{\"sent\":" + std::to_string(p.sent) +
         ",\"succeeded\":" + std::to_string(p.succeeded) +
         ",\"failed\":" + std::to_string(p.failed) +
         ",\"refused\":" + refused + "}";
}

// ---------------------------------------------------------------------------

Tracer::Scope::Scope(Tracer& t, const std::string& name, std::uint64_t request)
    : tracer_(t), index_(t.spans_.size()) {
  Span s;
  s.name = name;
  s.parent = t.open_.empty() ? -1 : static_cast<std::int64_t>(t.open_.back());
  s.request = request == 0 && s.parent >= 0
                  ? t.spans_[static_cast<std::size_t>(s.parent)].request
                  : request;
  t.spans_.push_back(std::move(s));
  t.open_.push_back(index_);
  // Stamp last, so recording the span costs as little of its own time as
  // possible.
  t.spans_[index_].start_ns = t.now_ns();
}

Tracer::Scope::~Scope() {
  tracer_.spans_[index_].end_ns = tracer_.now_ns();
  tracer_.open_.pop_back();
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::vector<double> Tracer::self_ms(const std::string& name) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    const std::int64_t self =
        spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    out.push_back(static_cast<double>(std::max<std::int64_t>(self, 0)) * 1e-6);
  }
  return out;
}

double Tracer::median_self_ms(const std::string& name) const {
  return median(self_ms(name));
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":" << json_escape(s.name)
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}\n";
  }
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

}  // namespace

std::string host_json(const Options& opt) {
  std::ostringstream os;
  os << "{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
     << ",\"affinity\":" << affinity_cpus()
     << ",\"cpu\":" << json_escape(cpu_model())
     << ",\"isa\":" << json_escape(kernel_isa_flags())
     << ",\"build_type\":" << json_escape(MOSS_PERFBENCH_BUILD_TYPE)
     << ",\"compiler\":" << json_escape(MOSS_PERFBENCH_COMPILER)
     << ",\"moss_kernel_threads\":"
     << json_escape(env_or("MOSS_KERNEL_THREADS", "unset"))
     << ",\"kernel_threads\":" << moss::tensor::kernels::threads()
     << ",\"git_sha\":" << json_escape(env_or("PERFBENCH_GIT_SHA", "none"))
     << ",\"threads\":" << opt.threads << ",\"seed\":" << opt.seed
     << ",\"seconds\":" << json_number(opt.seconds) << "}";
  return os.str();
}

void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  if (out) out << "5";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::string scratch_dir(const std::string& leaf) {
  const std::filesystem::path p =
      std::filesystem::path(".bench_build") / "run" /
      (leaf + "-" + std::to_string(getpid()));
  std::filesystem::create_directories(p);
  return p.string();
}

}  // namespace perfbench
