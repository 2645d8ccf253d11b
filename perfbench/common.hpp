// Shared plumbing of the repository benchmark: options, timing, order
// statistics, the span tracer, host facts and the result record every
// workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test sizes: a handful of designs, one setup repetition.
  bool tiny = false;
  /// Self-test: perturb one reference value so the output check must fail.
  bool corrupt_reference = false;
  /// Engine workers, dataset threads and training threads: min(nproc, 4).
  std::size_t threads = 1;
};

/// Linear-interpolated quantile of `v` (q in [0,1]); +inf entries sort
/// last, so failed requests count as missing every latency limit.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Samples per latency segment: a segment's p99 has at least ten samples
/// beyond it.
inline constexpr std::size_t kLatencySegment = 1000;

/// Quantile `q` of each run of `seg` consecutive samples (the last segment
/// absorbs the remainder; one segment when there are fewer), then the
/// median over segments — so one stall of a shared host moves at most one
/// segment's tail. `beyond`, when given, receives "count/size" per segment
/// of the samples above that segment's quantile.
double segment_quantile(const std::vector<double>& v, double q,
                        std::string* beyond = nullptr,
                        std::size_t seg = kLatencySegment);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Request accounting of one measured phase. The generator never retries,
/// so sent == succeeded + failed + refused.
struct PhaseCount {
  std::uint64_t sent = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> refused;  ///< by typed reason
  std::uint64_t refused_total() const;
  void add_error(const std::string& reason, bool at_submit);
  void merge(const PhaseCount& o);
};

/// What one workload invocation produces. `detail` holds (key, raw JSON
/// value) pairs printed as one object on the line before the result.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> mismatches;  ///< the first kMaxListed
  std::uint64_t mismatch_count = 0;
  std::vector<std::pair<std::string, std::string>> detail;  ///< key, raw JSON

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  static constexpr std::size_t kMaxListed = 20;
  void mismatch(const std::string& what) {
    correct = false;
    if (++mismatch_count <= kMaxListed) mismatches.push_back(what);
  }
  void add_detail(const std::string& key, const std::string& raw_json) {
    detail.emplace_back(key, raw_json);
  }
};

std::string json_escape(const std::string& s);
std::string json_number(double v);
std::string phase_json(const PhaseCount& p);

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// In-memory span recorder. Spans nest per thread (the innermost open span
/// is the parent of the next one); a layer's number is the median *self*
/// time of its spans: duration minus the time its direct children cover.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index into spans(), -1 for a root
    std::uint64_t request = 0;
  };

  /// RAII span; closes on destruction.
  class Scope {
   public:
    Scope(Tracer& t, const std::string& name, std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  /// Self times (ms) of every span called `name`.
  std::vector<double> self_ms(const std::string& name) const;
  /// Median self time of `name` in ms (0 when absent).
  double median_self_ms(const std::string& name) const;
  /// Write every span as one JSON line each.
  bool write(const std::string& path) const;

 private:
  std::int64_t now_ns() const;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  Clock::time_point origin_ = Clock::now();
};

// ---------------------------------------------------------------------------
// Host facts
// ---------------------------------------------------------------------------

std::size_t affinity_cpus();
/// JSON object with nproc, affinity, CPU model, ISA flags of the build,
/// build type, compiler, MOSS_KERNEL_THREADS, git sha (when known) and seed.
std::string host_json(const Options& opt);
/// Reset the process high-water RSS so a later peak_rss_mb reads one
/// workload only (Linux clear_refs; a no-op elsewhere).
void reset_peak_rss();
double peak_rss_mb();

/// Scratch directory inside the working directory (the checkout).
std::string scratch_dir(const std::string& leaf);

}  // namespace perfbench
