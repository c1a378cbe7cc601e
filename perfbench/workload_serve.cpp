// serve: the resident service over an in-process socketpair. One client
// connection drives a closed loop (the next request goes out only when a
// reply comes back) with a fixed window of requests in flight. The seeded
// stream is ~90% screen on scenario d over a fixed skip-set pool (a first
// touch misses and fills the candidate tier, a repeat hits), ~8% customize
// and ~2% smoke experiment. The only workload that loads serve.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "shg/common/parallel.hpp"
#include "shg/serve/server.hpp"

namespace perfbench {
namespace {

using namespace shg;

constexpr std::size_t kScreenPool = 1024;
constexpr int kWindow = 4;
constexpr int kSetupReps = 24;
// Completed requests after which the peak resident set is read: a fixed
// amount of load, past the point where the whole screen pool was touched.
constexpr std::size_t kRssRequests = 20000;
const char* const kScenarios[] = {"a", "b", "c", "d"};
const char* const kExperimentBody =
    "\"op\":\"experiment\",\"grid\":\"6x6\",\"traffic\":[\"uniform\"],"
    "\"rates\":[0.05,0.1],\"seeds\":1,\"smoke\":true";

std::string skips_json(const std::set<int>& skips) {
  std::string out = "[";
  for (const int s : skips) {
    if (out.size() > 1) out += ",";
    out += std::to_string(s);
  }
  return out + "]";
}

/// Every distinct request body of the stream (a line minus its id): the
/// screen pool first, then customize a..d, then the experiment.
std::vector<std::string> make_bodies(std::uint64_t seed) {
  std::mt19937_64 rng(mix_seed(seed, 30));
  auto pick = [&rng](int lo, int hi, int max_count) {
    std::set<int> skips;
    const int n = static_cast<int>(rng() % static_cast<std::uint64_t>(max_count + 1));
    while (static_cast<int>(skips.size()) < n) {
      skips.insert(lo + static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo + 1)));
    }
    return skips;
  };
  std::set<std::string> seen;
  std::vector<std::string> bodies;
  while (bodies.size() < kScreenPool) {
    // Scenario d is 8x16: row skips span 2..15, column skips 2..7.
    const std::string body = "\"op\":\"screen\",\"scenario\":\"d\",\"row_skips\":" +
                             skips_json(pick(2, 15, 3)) + ",\"col_skips\":" +
                             skips_json(pick(2, 7, 2));
    if (seen.insert(body).second) bodies.push_back(body);
  }
  for (const char* s : kScenarios) {
    bodies.push_back(std::string("\"op\":\"customize\",\"scenario\":\"") + s +
                     "\"");
  }
  bodies.push_back(kExperimentBody);
  return bodies;
}

std::string line_of(const std::string& body, std::uint64_t id) {
  return "{\"id\":\"r" + std::to_string(id) + "\"," + body + "}";
}

/// The seeded request order: indices into make_bodies().
class Stream {
 public:
  explicit Stream(std::uint64_t seed) : rng_(mix_seed(seed, 31)) {}
  std::size_t next() {
    const std::uint64_t roll = rng_() % 100;
    if (roll < 90) return static_cast<std::size_t>(rng_() % kScreenPool);
    if (roll < 98) return kScreenPool + static_cast<std::size_t>(rng_() % 4);
    return kScreenPool + 4;
  }

 private:
  std::mt19937_64 rng_;
};

/// The fields of one response line the client needs.
struct Reply {
  std::uint64_t id = 0;
  bool id_ok = false;
  bool ok = false;
  std::uint64_t elapsed_us = 0;
  bool has_counters = false;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::string_view result;
};

std::uint64_t number_after(std::string_view line, std::string_view key,
                           bool& found) {
  const std::size_t at = line.find(key);
  found = at != std::string_view::npos;
  if (!found) return 0;
  return std::strtoull(line.data() + at + key.size(), nullptr, 10);
}

Reply parse_reply(std::string_view line) {
  Reply reply;
  // Ids are strings ("r<N>"): the wire renderer prints some integers in
  // exponent form, so numeric ids would not echo back as sent.
  constexpr std::string_view kIdPrefix = "{\"id\":\"r";
  if (line.substr(0, kIdPrefix.size()) == kIdPrefix) {
    char* end = nullptr;
    reply.id = std::strtoull(line.data() + kIdPrefix.size(), &end, 10);
    reply.id_ok = end != line.data() + kIdPrefix.size() && *end == '"';
  }
  reply.ok = line.find(",\"ok\":true") != std::string_view::npos;
  bool found = false;
  reply.elapsed_us = number_after(line, ",\"elapsed_us\":", found);
  reply.hits = number_after(line, ",\"counters\":{\"hits\":", reply.has_counters);
  if (reply.has_counters) reply.misses = number_after(line, ",\"misses\":", found);
  constexpr std::string_view kResult = ",\"result\":";
  const std::size_t at = line.find(kResult);
  if (at != std::string_view::npos && line.back() == '}') {
    const std::size_t begin = at + kResult.size();
    reply.result = line.substr(begin, line.size() - 1 - begin);
  }
  return reply;
}

void write_all(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("serve client: write failed");
    done += static_cast<std::size_t>(n);
  }
}

/// A server on one end of a socketpair, its stream thread, and the
/// client's end. Closing the client's write side ends the stream.
class Connection {
 public:
  explicit Connection(int workers) {
    serve::ServerOptions server_options;
    server_options.workers = workers;
    server_ = std::make_unique<serve::Server>(server_options);
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_) != 0) {
      throw std::runtime_error("serve client: socketpair failed");
    }
    thread_ = std::thread([this] {
      server_->serve_stream(fds_[1], fds_[1]);
    });
  }
  ~Connection() { close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fds_[0]; }

  /// Reads until at least one complete line is buffered; returns the lines.
  std::vector<std::string> read_lines() {
    std::vector<std::string> lines;
    char chunk[65536];
    while (lines.empty()) {
      const ssize_t n = ::read(fds_[0], chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("serve client: stream closed");
      buffer_.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl; (nl = buffer_.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        lines.push_back(buffer_.substr(start, nl - start));
      }
      buffer_.erase(0, start);
    }
    return lines;
  }

  void close() {
    if (thread_.joinable()) {
      ::shutdown(fds_[0], SHUT_WR);
      thread_.join();
    }
    for (int& fd : fds_) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
  }

 private:
  std::unique_ptr<serve::Server> server_;
  int fds_[2] = {-1, -1};
  std::string buffer_;
  std::thread thread_;  ///< declared last: uses server_ and fds_
};

/// Sends each body once (ids 1..n) and waits for every reply; returns false
/// if any reply is not ok.
bool prime(Connection& conn, const std::vector<std::string>& bodies) {
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    write_all(conn.fd(), line_of(bodies[i], i + 1) + "\n");
  }
  bool ok = true;
  for (std::size_t got = 0; got < bodies.size();) {
    for (const std::string& line : conn.read_lines()) {
      ok = ok && parse_reply(line).ok;
      ++got;
    }
  }
  return ok;
}

std::vector<std::string> priming_bodies(const std::vector<std::string>& bodies) {
  return {bodies.begin() + kScreenPool, bodies.end()};
}

struct Sample {
  std::size_t body = 0;
  Clock::time_point sent;
  double latency_us = 0.0;
  double done_s = 0.0;  ///< reply time, seconds into the load
  std::uint64_t elapsed_us = 0;
  bool done = false;
  bool failed = false;  ///< ok:false, or result bytes unlike the reference
};

struct LoadFigures {
  double block_s = 0.0;  ///< wall time of one block of kBlockReplies
  double req_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

// Replies per block of the load statistics: enough for ten samples beyond
// each block's p99.
constexpr std::size_t kBlockReplies = 1000;

/// Throughput and latency percentiles per block of kBlockReplies
/// consecutive replies, then the median over the blocks. Host interference
/// (bursts of CPU steal lasting milliseconds) inflates only the blocks it
/// overlaps, so it does not set the run's figures.
LoadFigures load_figures(const std::vector<Sample>& samples) {
  std::vector<const Sample*> done;
  for (const Sample& s : samples) {
    if (s.done) done.push_back(&s);
  }
  std::sort(done.begin(), done.end(), [](const Sample* a, const Sample* b) {
    return a->done_s < b->done_s;
  });
  const std::size_t block = std::min(kBlockReplies, done.size());
  std::vector<double> block_s, rates, p50, p99;
  double block_start = 0.0;
  for (std::size_t begin = 0; block > 0 && begin + block <= done.size();
       begin += block) {
    std::vector<double> latency;
    for (std::size_t i = begin; i < begin + block; ++i) {
      latency.push_back(done[i]->latency_us);
    }
    const double block_end = done[begin + block - 1]->done_s;
    block_s.push_back(block_end - block_start);
    rates.push_back(static_cast<double>(block) / block_s.back());
    block_start = block_end;
    p50.push_back(percentile(latency, 0.50));
    p99.push_back(percentile(latency, 0.99));
  }
  return {median(block_s), median(rates), median(p50), median(p99)};
}

}  // namespace

Report run_serve(const Options& options, Tracer& tracer) {
  Report report;
  report.threads = 1;  // ops run serially inside each server worker
  report.server_workers = capped_threads(2);
  set_max_threads(report.threads);

  const std::vector<std::string> bodies = make_bodies(options.seed);
  const std::vector<std::string> primers = priming_bodies(bodies);

  // Reference results: every body executed directly on its own service.
  std::vector<std::string> reference(bodies.size());
  {
    serve::Service direct;
    Digest digest;
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      const serve::Response r =
          direct.execute(direct.parse_request(line_of(bodies[i], 0)));
      report.check(r.ok, "direct execute failed: " + r.error);
      reference[i] = r.result_json;
      digest.add(reference[i]);
    }
    report.digest = digest.hex();
  }

  // Set-up: start the server and prime it (cold customize a..d, one smoke
  // experiment). Repeated on fresh servers, half before the load (the last
  // of these takes the load) and half after it, so the samples span the
  // run rather than one phase of the host.
  std::vector<double> setup_times;
  std::unique_ptr<Connection> conn;
  auto set_up = [&](std::uint64_t rep) {
    conn.reset();
    auto scope = tracer.span("serve.setup", rep);
    const Clock::time_point start = Clock::now();
    conn = std::make_unique<Connection>(report.server_workers);
    report.check(prime(*conn, primers), "priming request failed");
    setup_times.push_back(seconds_since(start));
  };
  for (int rep = 0; rep < kSetupReps / 2; ++rep) set_up(setup_times.size());

  // Load: closed loop, kWindow requests in flight, until the budget ends.
  Stream stream(options.seed);
  std::vector<Sample> samples;
  samples.reserve(1 << 20);
  std::uint64_t screen_hits = 0;
  std::uint64_t screen_lookups = 0;
  std::uint64_t error_replies = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t bad_ids = 0;
  const Clock::time_point load_start = Clock::now();
  const Clock::time_point deadline =
      load_start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(options.seconds));
  std::size_t outstanding = 0;
  std::size_t completed = 0;
  double rss_mb = 0.0;
  auto send = [&] {
    Sample s;
    s.body = stream.next();
    const std::string line = line_of(bodies[s.body], samples.size()) + "\n";
    s.sent = Clock::now();
    samples.push_back(s);
    write_all(conn->fd(), line);
    ++outstanding;
  };
  for (int i = 0; i < kWindow; ++i) send();
  while (outstanding > 0) {
    for (const std::string& line : conn->read_lines()) {
      const Clock::time_point now = Clock::now();
      const Reply reply = parse_reply(line);
      if (!reply.id_ok || reply.id >= samples.size() || samples[reply.id].done) {
        ++bad_ids;
        continue;
      }
      Sample& s = samples[reply.id];
      s.done = true;
      s.latency_us = std::chrono::duration<double, std::micro>(now - s.sent).count();
      s.done_s = seconds_between(load_start, now);
      s.elapsed_us = reply.elapsed_us;
      tracer.record("serve.request", s.sent, now, reply.id);
      if (!reply.ok) ++error_replies;
      if (reply.result != reference[s.body]) ++mismatches;
      s.failed = !reply.ok || reply.result != reference[s.body];
      if (s.body < kScreenPool && reply.has_counters) {
        screen_hits += reply.hits;
        screen_lookups += reply.hits + reply.misses;
      }
      --outstanding;
      if (++completed == kRssRequests) rss_mb = peak_rss_mb();
      if (now < deadline) send();
    }
  }
  conn->close();
  if (completed < kRssRequests) rss_mb = peak_rss_mb();
  for (int rep = kSetupReps / 2; rep < kSetupReps; ++rep) {
    set_up(setup_times.size());
  }
  conn.reset();

  std::uint64_t unanswered = 0;
  std::uint64_t failed_requests = 0;
  for (const Sample& s : samples) {
    if (!s.done) {
      ++unanswered;
      continue;
    }
    if (s.failed) ++failed_requests;
  }
  // Every request is one checked operation: answered exactly once, ok, and
  // with the reference result bytes. A reply that matches no request in
  // flight counts as one more failure.
  report.attempted += samples.size();
  report.failed += unanswered + failed_requests + bad_ids;
  if (unanswered + error_replies + mismatches + bad_ids > 0) {
    report.notes.push_back(
        "FAIL: serve unanswered=" + std::to_string(unanswered) +
        " error_replies=" + std::to_string(error_replies) +
        " result_mismatches=" + std::to_string(mismatches) +
        " bad_ids=" + std::to_string(bad_ids));
  }
  report.notes.push_back("serve: " + std::to_string(samples.size()) +
                         " requests, window " + std::to_string(kWindow) +
                         ", screen pool " + std::to_string(kScreenPool));

  const LoadFigures load = load_figures(samples);
  const std::string prefix = tracer.enabled() ? "traced." : "";
  report.add(prefix + "setup_s", median(setup_times), "s");
  report.add(prefix + "peak_rss_mb", rss_mb, "MB");
  report.add(prefix + "job_s", load.block_s, "s");
  // Throughput and latency are printed but are not metrics of the JSON
  // line: every workload reports the same end-to-end metrics, and job_s
  // (the time of 1,000 replies) carries the throughput.
  char load_line[160];
  std::snprintf(load_line, sizeof load_line,
                "serve: req_per_s %.6g, req_p50_ms %.6g, req_p99_ms %.6g "
                "(medians over blocks), error_replies %llu",
                load.req_per_s, load.p50_us / 1000.0, load.p99_us / 1000.0,
                static_cast<unsigned long long>(error_replies));
  report.notes.push_back(load_line);
  if (!tracer.enabled()) return report;

  // Probe: the op layer alone, on a service primed like the server.
  serve::Service service;
  for (const std::string& body : primers) {
    service.execute(service.parse_request(line_of(body, 0)));
  }
  std::vector<double> parse_us;
  std::vector<double> render_us;
  auto execute_us = [&](std::size_t body, const char* span) {
    const std::string line = line_of(bodies[body], body);
    Clock::time_point start = Clock::now();
    serve::Request request;
    {
      auto s = tracer.span("serve.parse_request", body);
      request = service.parse_request(line);
    }
    parse_us.push_back(seconds_since(start) * 1e6);
    start = Clock::now();
    serve::Response response;
    {
      auto s = tracer.span(span, body);
      response = service.execute(request);
    }
    const double us = seconds_since(start) * 1e6;
    report.check(response.ok && response.result_json == reference[body],
                 std::string(span) + " result differs from the reference");
    start = Clock::now();
    {
      auto s = tracer.span("serve.to_line", body);
      const std::string rendered = response.to_line();
      report.check(!rendered.empty(), "empty rendered response");
    }
    render_us.push_back(seconds_since(start) * 1e6);
    return us;
  };
  std::vector<double> elapsed_us;
  std::vector<double> transport_us;
  for (const Sample& s : samples) {
    if (!s.done) continue;
    elapsed_us.push_back(static_cast<double>(s.elapsed_us));
    transport_us.push_back(s.latency_us - static_cast<double>(s.elapsed_us));
  }
  std::vector<double> miss_us, hit_us, customize_us, experiment_us;
  constexpr std::size_t kProbeScreens = 200;
  for (std::size_t i = 0; i < kProbeScreens; ++i) {
    miss_us.push_back(execute_us(i, "serve.execute.screen_miss"));
  }
  for (std::size_t i = 0; i < kProbeScreens; ++i) {
    hit_us.push_back(execute_us(i, "serve.execute.screen_hit"));
  }
  for (int rep = 0; rep < 10; ++rep) {
    for (std::size_t k = 0; k < 4; ++k) {
      customize_us.push_back(execute_us(kScreenPool + k, "serve.execute.customize"));
    }
    experiment_us.push_back(execute_us(kScreenPool + 4, "serve.execute.experiment"));
  }

  report.add("serve.parse_us", median(parse_us), "us");
  report.add("serve.execute_us.screen_hit", median(hit_us), "us");
  report.add("serve.execute_us.screen_miss", median(miss_us), "us");
  report.add("serve.execute_us.customize", median(customize_us), "us");
  report.add("serve.execute_us.experiment", median(experiment_us), "us");
  report.add("serve.render_us", median(render_us), "us");
  report.add("serve.elapsed_us_p50", percentile(elapsed_us, 0.50), "us");
  report.add("serve.elapsed_us_p99", percentile(elapsed_us, 0.99), "us");
  report.add("serve.queue_transport_us_p50", percentile(transport_us, 0.50), "us");
  report.add("serve.queue_transport_us_p99", percentile(transport_us, 0.99), "us");
  report.add("customize.candidate_hit_ratio",
             screen_lookups == 0 ? 0.0
                                 : static_cast<double>(screen_hits) /
                                       static_cast<double>(screen_lookups),
             "fraction");
  return report;
}

}  // namespace perfbench
