// dse: the customization path with no Session — greedy search on six
// architectures, the cost report of each winner, and a full design-space
// exploration on a 16x16 grid. Loads customize screening, phys link
// routing and model cost evaluation; sim stays idle.
#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "shg/common/parallel.hpp"
#include "shg/customize/explore.hpp"
#include "shg/customize/search.hpp"
#include "shg/eval/toolchain.hpp"
#include "shg/tech/presets.hpp"
#include "shg/topo/generators.hpp"

namespace perfbench {
namespace {

using namespace shg;

struct Arch {
  std::string label;
  tech::ArchParams params;
};

std::vector<Arch> make_archs() {
  std::vector<Arch> archs = {
      {"a", tech::knc_scenario(tech::KncScenario::kA)},
      {"b", tech::knc_scenario(tech::KncScenario::kB)},
      {"c", tech::knc_scenario(tech::KncScenario::kC)},
      {"d", tech::knc_scenario(tech::KncScenario::kD)},
  };
  for (const int n : {16, 24}) {
    Arch grid{std::to_string(n) + "x" + std::to_string(n),
              tech::knc_scenario(tech::KncScenario::kA)};
    grid.params.rows = n;
    grid.params.cols = n;
    archs.push_back(std::move(grid));
  }
  return archs;
}

void digest_params(Digest& d, const topo::ShgParams& params) {
  d.add(customize::fmt_skip_sets(params));
}

void digest_metrics(Digest& d, const customize::CandidateMetrics& m) {
  d.add(m.area_overhead);
  d.add(m.avg_hops);
  d.add(m.diameter);
  d.add(m.throughput_bound);
}

std::string search_digest(const customize::SearchResult& result) {
  Digest d;
  digest_params(d, result.params);
  digest_metrics(d, result.metrics);
  d.add(result.cost.total_area_mm2);
  d.add(result.cost.noc_power_w);
  for (const customize::SearchStep& step : result.history) {
    digest_params(d, step.params);
    digest_metrics(d, step.metrics);
    d.add(step.note);
  }
  return d.hex();
}

std::string cost_digest(const model::CostReport& cost) {
  Digest d;
  for (const double v :
       {cost.router_area_ge, cost.tile_area_ge, cost.chip_width_mm,
        cost.chip_height_mm, cost.total_area_mm2, cost.noc_area_mm2,
        cost.area_overhead, cost.total_power_w, cost.noc_power_w,
        cost.avg_link_latency_cycles, cost.max_link_latency_cycles}) {
    d.add(v);
  }
  for (const int latency : cost.link_latencies()) d.add(static_cast<long long>(latency));
  return d.hex();
}

std::string points_digest(const std::vector<customize::ExploredPoint>& points) {
  Digest d;
  d.add(static_cast<long long>(points.size()));
  for (const customize::ExploredPoint& p : points) {
    digest_params(d, p.params);
    digest_metrics(d, p.metrics);
    d.add(p.label);
  }
  return d.hex();
}

// One job's outputs and step times, keyed by step name.
struct JobRecord {
  std::map<std::string, std::string> outputs;
  std::map<std::string, double> step_s;
  double greedy_s = 0.0;
  double predict_cost_s = 0.0;
  long long greedy_steps = 0;
  std::size_t explore_candidates = 0;
};

template <typename Fn>
auto timed(JobRecord& job, const std::string& step, Tracer& tracer,
           const char* span, std::uint64_t id, Fn&& fn) {
  auto scope = tracer.span(span, id);
  const Clock::time_point start = Clock::now();
  auto result = fn();
  job.step_s[step] = seconds_since(start);
  return result;
}

JobRecord run_job(const std::vector<Arch>& archs, const Arch& explore_grid,
                  Tracer& tracer, std::uint64_t id) {
  JobRecord job;
  auto scope = tracer.span("dse.job", id);
  for (const Arch& arch : archs) {
    const customize::SearchResult result =
        timed(job, "greedy/" + arch.label, tracer, "customize.greedy", id,
              [&] {
                return customize::customize_greedy(arch.params,
                                                   customize::Goal{});
              });
    job.outputs["greedy/" + arch.label] = search_digest(result);
    job.greedy_s += job.step_s["greedy/" + arch.label];
    job.greedy_steps += static_cast<long long>(result.history.size());

    const topo::Topology winner = [&] {
      auto s = tracer.span("topo.build", id);
      return topo::make_sparse_hamming(arch.params.rows, arch.params.cols,
                                       result.params.row_skips,
                                       result.params.col_skips);
    }();
    const model::CostReport cost =
        timed(job, "cost/" + arch.label, tracer, "model.predict_cost", id,
              [&] { return eval::predict_cost(arch.params, winner); });
    job.outputs["cost/" + arch.label] = cost_digest(cost);
    job.predict_cost_s += job.step_s["cost/" + arch.label];
  }

  const customize::ExploreOptions explore_options;
  const std::vector<customize::ExploredPoint> shg_points =
      timed(job, "explore_shg", tracer, "customize.explore_shg", id, [&] {
        return customize::explore_shg(explore_grid.params, explore_options);
      });
  job.outputs["explore_shg"] = points_digest(shg_points);
  job.explore_candidates = shg_points.size();
  const std::vector<customize::ExploredPoint> ruche_points =
      timed(job, "explore_ruche", tracer, "customize.explore_ruche", id, [&] {
        return customize::explore_ruche(explore_grid.params, explore_options);
      });
  job.outputs["explore_ruche"] = points_digest(ruche_points);
  const std::vector<customize::ExploredPoint> front =
      timed(job, "front", tracer, "customize.front", id,
            [&] { return customize::trade_off_front(shg_points); });
  job.outputs["front"] = points_digest(front);
  return job;
}

// Random skip sets on `arch` for the solo screening probe.
std::vector<topo::ShgParams> screen_sample(const tech::ArchParams& arch,
                                           std::uint64_t seed,
                                           std::size_t count) {
  std::mt19937_64 rng(seed);
  auto pick = [&rng](int extent) {
    std::set<int> skips;
    const int n = static_cast<int>(rng() % 3);  // 0..2 skips
    for (int k = 0; k < n; ++k) {
      skips.insert(2 + static_cast<int>(rng() % static_cast<std::uint64_t>(
                                            extent - 2)));
    }
    return skips;
  };
  std::vector<topo::ShgParams> sample;
  for (std::size_t i = 0; i < count; ++i) {
    sample.push_back(topo::ShgParams{pick(arch.cols), pick(arch.rows)});
  }
  return sample;
}

}  // namespace

Report run_dse(const Options& options, Tracer& tracer) {
  Report report;
  report.threads = capped_threads(1);
  set_max_threads(report.threads);

  // Set-up: the input architectures. It is microseconds of work, so it is
  // repeated 25 times before every job (each job starts from freshly built
  // inputs) and the median reported. The inputs are fixed: the job order
  // stays the same for every seed, since a different order alone moves the
  // peak resident set by heap layout. The seed picks the probe's screen
  // sample.
  constexpr int kSetupRepsPerJob = 25;
  std::vector<double> setup_times;
  std::vector<Arch> archs;
  std::vector<JobRecord> jobs;
  double rss_mb = 0.0;
  const std::vector<double> job_times = run_jobs(
      options.seconds,
      [&](std::size_t index) {
        for (int rep = 0; rep < kSetupRepsPerJob; ++rep) {
          auto scope = tracer.span("dse.setup", index);
          const Clock::time_point start = Clock::now();
          archs = make_archs();
          setup_times.push_back(seconds_since(start));
        }
      },
      [&](std::size_t index) {
        const Arch& explore_grid = *std::find_if(
            archs.begin(), archs.end(),
            [](const Arch& a) { return a.label == "16x16"; });
        jobs.push_back(run_job(archs, explore_grid, tracer, index));
        if (jobs.size() == kRssJobs) rss_mb = peak_rss_mb();
      });

  const JobRecord& first = jobs.front();
  for (const JobRecord& job : jobs) {
    for (const auto& [step, digest] : job.outputs) {
      report.check(digest == first.outputs.at(step),
                   "dse " + step + " output differs from the first job's");
    }
  }
  Digest digest;
  for (const auto& [step, d] : first.outputs) {
    digest.add(step);
    digest.add(d);
  }
  report.digest = digest.hex();
  const double job_s = median(job_times);
  report.notes.push_back("dse: " + std::to_string(jobs.size()) + " jobs");

  auto per_job = [&jobs](auto field) {
    std::vector<double> values;
    for (const JobRecord& job : jobs) values.push_back(field(job));
    return median(values);
  };
  if (!tracer.enabled()) {
    report.add("setup_s", median(setup_times), "s");
    report.add("peak_rss_mb", rss_mb, "MB");
    report.add("job_s", job_s, "s");
    return report;
  }

  // Probe: solo screen_candidate calls on a fixed sample, the path a lone
  // served screen miss takes.
  const tech::ArchParams probe_arch = tech::knc_scenario(tech::KncScenario::kD);
  std::vector<double> screen_us;
  for (const topo::ShgParams& params :
       screen_sample(probe_arch, mix_seed(options.seed, 2), 200)) {
    auto scope = tracer.span("customize.screen_candidate");
    const Clock::time_point start = Clock::now();
    const customize::CandidateMetrics metrics =
        customize::screen_candidate(probe_arch, params);
    screen_us.push_back(seconds_since(start) * 1e6);
    report.check(metrics.avg_hops > 0.0, "screen_candidate gave no hops");
  }

  report.add("customize.greedy_s",
             per_job([](const JobRecord& j) { return j.greedy_s; }), "s");
  report.add("customize.greedy_steps", static_cast<double>(first.greedy_steps),
             "count");
  const double explore_s =
      per_job([](const JobRecord& j) { return j.step_s.at("explore_shg"); });
  report.add("customize.explore_shg_s", explore_s, "s");
  report.add("customize.explore_candidates",
             static_cast<double>(first.explore_candidates), "count");
  report.add("customize.us_per_candidate",
             explore_s * 1e6 / static_cast<double>(first.explore_candidates),
             "us");
  report.add("customize.explore_ruche_s",
             per_job([](const JobRecord& j) { return j.step_s.at("explore_ruche"); }),
             "s");
  report.add("customize.front_s",
             per_job([](const JobRecord& j) { return j.step_s.at("front"); }), "s");
  report.add("model.predict_cost_s",
             per_job([](const JobRecord& j) { return j.predict_cost_s; }), "s");
  report.add("customize.screen_candidate_us", median(screen_us), "us");
  report.add("traced.setup_s", median(setup_times), "s");
  report.add("traced.peak_rss_mb", rss_mb, "MB");
  report.add("traced.job_s", job_s, "s");
  return report;
}

}  // namespace perfbench
