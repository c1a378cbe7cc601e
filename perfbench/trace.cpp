#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "bench.hpp"

namespace perfbench {

void Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 0x100000001b3ull;
  }
  // Length separator, so ("ab","c") and ("a","bc") differ.
  add(static_cast<long long>(bytes.size()));
}

void Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add(static_cast<long long>(bits));
}

void Digest::add(long long value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= static_cast<std::uint64_t>(value >> (8 * i)) & 0xffu;
    hash_ *= 0x100000001b3ull;
  }
}

std::string Digest::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    notes.push_back("FAIL: " + what);
  }
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int capped_threads(int wanted) {
  const unsigned hw = std::thread::hardware_concurrency();
  const int available = hw == 0 ? 1 : static_cast<int>(hw);
  return std::max(1, std::min(wanted, available));
}

namespace {
// Innermost open span of this thread (the tracer is process-wide).
thread_local int open_span = -1;
}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

Tracer::Scope::Scope(Tracer& tracer, std::string name, std::uint64_t id) {
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  index_ = tracer.open(std::move(name), id);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close(index_);
}

int Tracer::open(std::string name, std::uint64_t id) {
  const double start = seconds_between(origin_, Clock::now());
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::move(name), start, start, open_span, id});
  open_span = static_cast<int>(spans_.size()) - 1;
  return open_span;
}

void Tracer::close(int index) {
  const double end = seconds_between(origin_, Clock::now());
  const std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_s = end;
  open_span = span.parent;
}

void Tracer::record(std::string name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t id) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::move(name), seconds_between(origin_, start),
                        seconds_between(origin_, end), -1, id});
}

namespace {

// Per-span self time: children of one parent run one after another on the
// parent's thread, so their durations sum to the covered interval.
std::vector<double> self_times(const std::vector<Tracer::Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_s - spans[i].start_s;
  }
  for (const Tracer::Span& span : spans) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.end_s - span.start_s;
    }
  }
  return self;
}

}  // namespace

std::map<std::string, double> Tracer::self_by_layer() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<double> self = self_times(spans_);
  std::map<std::string, double> layers;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    layers[spans_[i].name.substr(0, spans_[i].name.find('.'))] += self[i];
  }
  return layers;
}

bool Tracer::write_json(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<double> self = self_times(spans_);
  struct Totals {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Totals> summary;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = summary[spans_[i].name];
    ++t.count;
    t.total_s += spans_[i].end_s - spans_[i].start_s;
    t.self_s += self[i];
  }
  char buf[256];
  out << "{\n  \"schema\": \"shg.perfbench.trace.v1\",\n  \"summary\": {";
  bool first = true;
  for (const auto& [name, t] : summary) {
    std::snprintf(buf, sizeof buf,
                  "%s\n    \"%s\": {\"count\": %zu, \"total_s\": %.9g, "
                  "\"self_s\": %.9g}",
                  first ? "" : ",", name.c_str(), t.count, t.total_s,
                  t.self_s);
    out << buf;
    first = false;
  }
  out << "\n  },\n  \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n    {\"name\": \"%s\", \"start_s\": %.9f, "
                  "\"end_s\": %.9f, \"parent\": %d, \"id\": %llu}",
                  i == 0 ? "" : ",", s.name.c_str(), s.start_s, s.end_s,
                  s.parent, static_cast<unsigned long long>(s.id));
    out << buf;
  }
  out << "\n  ]\n}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
