// campaign: the paper's Figure 6a experiment (7 topologies with cost-model
// link latencies, 3 traffic patterns x 4 rates, one seed = 84 cells) run on
// a fresh Session, rendered, and re-run warm on the same Session. Many
// small cells on the route-table path; sim dominates.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "shg/common/parallel.hpp"
#include "shg/customize/session.hpp"
#include "shg/eval/experiment.hpp"
#include "shg/eval/perf.hpp"
#include "shg/eval/toolchain.hpp"
#include "shg/sim/traffic_spec.hpp"

namespace perfbench {
namespace {

using namespace shg;

struct Inputs {
  eval::Scenario scenario;
  std::vector<double> rates;
  std::vector<std::string> traffic;
  std::vector<std::uint64_t> seeds;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.scenario = eval::figure6_scenario(tech::KncScenario::kA);
  in.rates = {0.02, 0.05, 0.1, 0.2};
  in.traffic = {"uniform",
                "randperm:" + std::to_string(mix_seed(seed, 10) % 1000000),
                "hotspot:0,7:0.2"};
  in.seeds = {mix_seed(seed, 11) % 1000000};
  return in;
}

struct JobRecord {
  double spec_build_s = 0.0;
  double cold_s = 0.0;
  double render_s = 0.0;
  double warm_s = 0.0;
  std::string json;
  std::string csv;
  eval::ExperimentReport cold;
  std::size_t warm_hits = 0;
  std::size_t warm_simulated = 0;
};

JobRecord run_job(const Inputs& in, Tracer& tracer, std::uint64_t id,
                  Report& report) {
  JobRecord job;
  auto scope = tracer.span("campaign.job", id);
  Clock::time_point start = Clock::now();
  eval::ExperimentSpec spec = [&] {
    auto s = tracer.span("eval.figure6_experiment", id);
    return eval::figure6_experiment(in.scenario, in.rates, in.traffic,
                                    in.seeds);
  }();
  job.spec_build_s = seconds_since(start);

  customize::Session session;
  spec.session = &session;
  start = Clock::now();
  {
    auto s = tracer.span("eval.run_experiment.cold", id);
    job.cold = eval::run_experiment(spec);
  }
  job.cold_s = seconds_since(start);

  start = Clock::now();
  {
    auto s = tracer.span("eval.render", id);
    job.json = eval::experiment_to_json(job.cold);
    job.csv = eval::experiment_to_csv(job.cold);
  }
  job.render_s = seconds_since(start);

  start = Clock::now();
  std::string warm_json;
  std::string warm_csv;
  {
    auto s = tracer.span("eval.run_experiment.warm", id);
    const eval::ExperimentReport warm = eval::run_experiment(spec);
    job.warm_hits = warm.sim_cache_hits;
    job.warm_simulated = warm.sim_simulated;
    warm_json = eval::experiment_to_json(warm);
    warm_csv = eval::experiment_to_csv(warm);
  }
  job.warm_s = seconds_since(start);

  report.check(job.cold.sim_simulated == job.cold.sim_cells,
               "cold run did not simulate every cell");
  report.check(job.warm_simulated == 0, "warm re-run simulated cells");
  report.check(warm_json == job.json, "warm JSON differs from cold JSON");
  report.check(warm_csv == job.csv, "warm CSV differs from cold CSV");
  bool drained = true;
  for (const eval::ExperimentPoint& point : job.cold.points) {
    drained = drained && point.all_drained;
  }
  report.check(drained, "a campaign cell did not drain");
  return job;
}

// Re-runs every cell of the campaign serially through simulate_at_rate,
// timing each; the results must equal the campaign's own runs.
std::vector<double> serial_cells(const Inputs& in,
                                 const eval::ExperimentReport& cold,
                                 Tracer& tracer, Report& report,
                                 double& table_build_s) {
  const eval::ExperimentSpec spec = eval::figure6_experiment(
      in.scenario, in.rates, in.traffic, in.seeds);
  std::vector<double> cell_s;
  table_build_s = 0.0;
  std::size_t point = 0;
  for (const eval::TopologyCase& tc : spec.topologies) {
    Clock::time_point start = Clock::now();
    std::shared_ptr<const sim::RouteTable> table;
    {
      auto s = tracer.span("sim.route_table_build");
      table = eval::make_shared_route_table(tc.topology, spec.config);
    }
    table_build_s += seconds_since(start);
    for (const eval::TrafficCase& traffic : spec.traffic) {
      const auto pattern = sim::TrafficSpec::parse(traffic.spec).make_pattern(
          tc.topology.rows(), tc.topology.cols(), tc.topology.concentration());
      for (const double rate : spec.rates) {
        for (std::size_t s = 0; s < in.seeds.size(); ++s) {
          eval::PerfConfig config = spec.config;
          config.sim.seed = in.seeds[s];
          start = Clock::now();
          sim::SimResult result;
          {
            auto span = tracer.span("eval.simulate_at_rate");
            result = eval::simulate_at_rate(tc.topology, tc.link_latencies,
                                            spec.endpoints_per_tile, *pattern,
                                            config, rate, table);
          }
          cell_s.push_back(seconds_since(start));
          report.check(point < cold.points.size() &&
                           s < cold.points[point].runs.size() &&
                           cold.points[point].runs[s] == result,
                       "serial cell differs from the campaign's run");
        }
        ++point;
      }
    }
  }
  return cell_s;
}

}  // namespace

Report run_campaign(const Options& options, Tracer& tracer) {
  Report report;
  report.threads = capped_threads(2);
  set_max_threads(report.threads);

  // Set-up: the scenario and the seeded traffic and seed lists. It is
  // microseconds of work, so it is repeated 25 times before every job (each
  // job starts from freshly built inputs) and the median reported.
  constexpr int kSetupRepsPerJob = 25;
  std::vector<double> setup_times;
  Inputs inputs;
  std::vector<JobRecord> jobs;
  double rss_mb = 0.0;
  const std::vector<double> job_times = run_jobs(
      options.seconds,
      [&](std::size_t index) {
        for (int rep = 0; rep < kSetupRepsPerJob; ++rep) {
          auto scope = tracer.span("campaign.setup", index);
          const Clock::time_point start = Clock::now();
          inputs = make_inputs(options.seed);
          setup_times.push_back(seconds_since(start));
        }
      },
      [&](std::size_t index) {
        jobs.push_back(run_job(inputs, tracer, index, report));
        // Only the first job keeps its report; later ones are compared by
        // bytes.
        if (jobs.size() > 1) jobs.back().cold = {};
        if (jobs.size() == kRssJobs) rss_mb = peak_rss_mb();
      });
  const JobRecord& first = jobs.front();
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    report.check(jobs[i].json == first.json && jobs[i].csv == first.csv,
                 "campaign job " + std::to_string(i) +
                     " rendered different bytes than the first");
  }
  Digest digest;
  digest.add(first.json);
  digest.add(first.csv);
  report.digest = digest.hex();
  report.notes.push_back("campaign: " + std::to_string(jobs.size()) +
                         " jobs of " + std::to_string(first.cold.sim_cells) +
                         " cells");

  auto med = [&jobs](double JobRecord::*field) {
    std::vector<double> values;
    for (const JobRecord& job : jobs) values.push_back(job.*field);
    return median(values);
  };
  const double job_s = median(job_times);
  if (!tracer.enabled()) {
    report.add("setup_s", median(setup_times), "s");
    report.add("peak_rss_mb", rss_mb, "MB");
    report.add("job_s", job_s, "s");
    return report;
  }

  double table_build_s = 0.0;
  const std::vector<double> cell_s =
      serial_cells(inputs, first.cold, tracer, report, table_build_s);
  double cell_total = 0.0;
  for (const double s : cell_s) cell_total += s;
  std::size_t table_bytes = 0;
  std::size_t rows = 0;
  std::size_t unique_rows = 0;
  for (const eval::TableFootprint& t : first.cold.route_tables) {
    table_bytes += t.bytes;
    rows += t.rows;
    unique_rows += t.unique_rows;
  }
  long long cycles = 0;
  long long flits = 0;
  std::size_t cells = 0;
  const int packet_flits =
      eval::default_perf_config(inputs.scenario.arch).sim.packet_size_flits;
  for (const eval::ExperimentPoint& point : first.cold.points) {
    for (const sim::SimResult& run : point.runs) {
      cycles += run.cycles_run;
      flits += run.measured_packets * packet_flits;
      ++cells;
    }
  }
  const double cold_s = med(&JobRecord::cold_s);
  report.add("eval.spec_build_s", med(&JobRecord::spec_build_s), "s");
  report.add("sim.route_table_build_s", table_build_s, "s");
  report.add("sim.route_table_mb", static_cast<double>(table_bytes) / 1048576.0,
             "MB");
  report.add("sim.route_table_unique_row_frac",
             static_cast<double>(unique_rows) / static_cast<double>(rows),
             "fraction");
  report.add("eval.run_experiment_s", cold_s, "s");
  report.add("sim.cell_s_p50", median(cell_s), "s");
  report.add("sim.cell_s_max", *std::max_element(cell_s.begin(), cell_s.end()),
             "s");
  report.add("eval.fanout_efficiency",
             cell_total / (static_cast<double>(report.threads) * cold_s),
             "fraction");
  report.add("sim.cycles_per_cell",
             static_cast<double>(cycles) / static_cast<double>(cells), "count");
  report.add("sim.measured_flits", static_cast<double>(flits), "count");
  report.add("sim.ns_per_flit", cell_total * 1e9 / static_cast<double>(flits),
             "ns");
  report.add("eval.render_s", med(&JobRecord::render_s), "s");
  report.add("customize.sim_tier_warm_hits",
             static_cast<double>(first.warm_hits), "count");
  report.add("eval.warm_run_s", med(&JobRecord::warm_s), "s");
  report.add("traced.setup_s", median(setup_times), "s");
  report.add("traced.peak_rss_mb", rss_mb, "MB");
  report.add("traced.job_s", job_s, "s");
  return report;
}

}  // namespace perfbench
