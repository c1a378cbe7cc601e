// Shared pieces of the end-to-end benchmark driver: options, the metric
// report every workload fills, an output digest, small statistics helpers
// and the in-memory span tracer (trace.cpp).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

inline double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

/// The default workload seed, and the held-out seed kept for checking a
/// claimed gain on inputs the change was not tuned on.
inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr std::uint64_t kHeldOutSeed = 1000003;

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;  ///< measurement budget for the timed jobs
  bool trace = false;     ///< per-layer run (spans on) instead of timed run
  std::string trace_out;  ///< where the traced run writes its spans
};

/// splitmix64: derives independent sub-seeds from the workload seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// FNV-1a over everything a workload produces; printed so identical
/// inputs can be seen to give identical outputs across runs.
class Digest {
 public:
  void add(std::string_view bytes);
  void add(double value);
  void add(long long value);
  std::string hex() const;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: metrics, the operation count its output
/// checks covered, and the output digest.
struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string digest;
  int threads = 1;         ///< set_max_threads cap used by the library
  int server_workers = 0;  ///< serve only
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts one checked operation; a failed check is logged by name.
  void check(bool ok, const std::string& what);
};

double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> values, double q);
double peak_rss_mb();

/// Jobs after which a job-based workload reads its peak resident set: a
/// fixed amount of work, so the figure does not grow with the number of
/// jobs a fast host fits into the budget.
inline constexpr std::size_t kRssJobs = 2;

/// Runs setup(i) then job(i) for i = 0, 1, ... until `seconds` are spent
/// after the first set-up, at least kRssJobs times (so outputs can be
/// compared across jobs). Set-up is thus repeated through the whole run
/// rather than bunched at its start, where one slow phase of the host
/// would set every sample. A cycle starts only while half a typical cycle
/// still fits, so runs end near the budget. Returns the wall time of each
/// job; set-up times itself.
template <typename Setup, typename Job>
std::vector<double> run_jobs(double seconds, Setup&& setup, Job&& job) {
  std::vector<double> job_s;
  std::vector<double> cycle_s;
  setup(std::size_t{0});
  const Clock::time_point start = Clock::now();
  while (job_s.size() < kRssJobs ||
         seconds_since(start) + 0.5 * median(cycle_s) < seconds) {
    const Clock::time_point cycle_start = Clock::now();
    if (!job_s.empty()) setup(job_s.size());
    const Clock::time_point job_start = Clock::now();
    job(job_s.size());
    const Clock::time_point end = Clock::now();
    job_s.push_back(seconds_between(job_start, end));
    cycle_s.push_back(seconds_between(cycle_start, end));
  }
  return job_s;
}

/// Worker count for a workload that wants `wanted` threads: never more than
/// the machine's hardware threads.
int capped_threads(int wanted);

/// In-memory span recorder. Spans are kept until the run ends; a disabled
/// tracer records nothing and reads no clock.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;  ///< seconds since the tracer was created
    double end_s = 0.0;
    int parent = -1;       ///< index of the enclosing span on its thread
    std::uint64_t id = 0;  ///< job or request id
  };

  /// RAII span around one call; nests under the innermost open span of the
  /// same thread.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::uint64_t id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    int index_ = -1;
  };

  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  Scope span(std::string name, std::uint64_t id = 0) {
    return Scope(*this, std::move(name), id);
  }
  /// Records a finished span measured elsewhere (a request seen by the
  /// client from send to reply).
  void record(std::string name, Clock::time_point start, Clock::time_point end,
              std::uint64_t id);

  /// Self time (duration minus child spans) summed per layer, the span-name prefix before the first '.'
  /// (customize, model, sim, ... or the benchmark's own job spans).
  std::map<std::string, double> self_by_layer() const;
  /// Writes every span plus a per-name summary (count, total, self time).
  bool write_json(const std::string& path) const;

 private:
  int open(std::string name, std::uint64_t id);
  void close(int index);

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
};

Report run_dse(const Options& options, Tracer& tracer);
Report run_campaign(const Options& options, Tracer& tracer);
Report run_serve(const Options& options, Tracer& tracer);

}  // namespace perfbench
