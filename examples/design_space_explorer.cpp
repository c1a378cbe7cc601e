// Design-space exploration over sparse Hamming graph configurations:
// enumerates SR/SC subsets on a chosen architecture, screens each with the
// fast cost model, prints the Pareto-optimal trade-offs and emits CSV for
// plotting. Demonstrates the "fast exploration of a large design space" the
// prediction toolchain enables (Section IV).
//
//   $ ./design_space_explorer [a|b|c|d] [max_skips_per_dim] [--refine]
//
// --refine demonstrates the in-memory session's two-pass refine loop of
// the customization methodology (Section V): pass 1 explores the requested
// space against a session, pass 2 re-explores with the per-dimension bound
// raised by one — the session serves every configuration pass 1 already
// screened from its cache, so pass 2 pays only for the newly reachable
// ones (the hit/miss counters printed after each pass show it).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "shg/common/strings.hpp"
#include "shg/common/table.hpp"
#include "shg/customize/explore.hpp"
#include "shg/customize/session.hpp"
#include "shg/eval/scenario.hpp"

namespace {

void print_front(const std::vector<shg::customize::ExploredPoint>& points) {
  using namespace shg;
  const auto front = customize::trade_off_front(points);
  std::printf("%zu configurations screened, %zu on the trade-off front\n\n",
              points.size(), front.size());
  Table table({"config", "area ovh", "diam", "avg hops", "thpt bound"});
  for (const auto& point : front) {
    table.add_row({point.label,
                   fmt_double(100.0 * point.metrics.area_overhead, 1) + " %",
                   fmt_double(point.metrics.diameter, 0),
                   fmt_double(point.metrics.avg_hops, 2),
                   fmt_double(point.metrics.throughput_bound, 3)});
  }
  std::printf("%s", table.to_string().c_str());
}

void print_session_stats(const shg::customize::Session& session,
                         const char* label) {
  const auto& stats = session.stats();
  std::printf(
      "[session] %s: %llu hits, %llu misses, %llu entries cached\n", label,
      static_cast<unsigned long long>(stats.hits),
      static_cast<unsigned long long>(stats.misses),
      static_cast<unsigned long long>(stats.insertions));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace shg;
  tech::KncScenario which = tech::KncScenario::kA;
  int max_skips = 2;
  bool refine = false;
  bool positional_seen = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--refine") == 0) {
      refine = true;
    } else if (!positional_seen && std::strlen(argv[i]) == 1 &&
               argv[i][0] >= 'a' && argv[i][0] <= 'd') {
      which = static_cast<tech::KncScenario>(argv[i][0] - 'a');
      positional_seen = true;
    } else if (std::atoi(argv[i]) > 0) {
      max_skips = std::atoi(argv[i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [a|b|c|d] [max_skips_per_dim] [--refine]\n",
                   argv[0]);
      return 1;
    }
  }

  customize::Session session;

  customize::ExploreOptions options;
  options.max_row_skips = max_skips;
  options.max_col_skips = max_skips;
  options.session = &session;

  const eval::Scenario scenario = eval::figure6_scenario(which);
  std::printf("exploring SHG configurations for %s (<= %d skips/dim)\n",
              scenario.arch.name.c_str(), options.max_row_skips);

  const auto points = customize::explore_shg(scenario.arch, options);
  print_front(points);
  print_session_stats(session, "pass 1");

  if (refine) {
    // Two-pass refine loop: widen the enumeration by one skip per
    // dimension. Every configuration of pass 1 is a prefix of this space,
    // so pass 2 re-screens only the newly reachable ones.
    options.max_row_skips = max_skips + 1;
    options.max_col_skips = max_skips + 1;
    std::printf("\nrefining: re-exploring with <= %d skips/dim\n",
                options.max_row_skips);
    const auto refined = customize::explore_shg(scenario.arch, options);
    print_front(refined);
    print_session_stats(session, "pass 2 (refined)");
    std::printf(
        "\nCSV (all refined points):\n"
        "config,area_overhead,diameter,avg_hops,throughput_bound\n");
    for (const auto& point : refined) {
      std::printf("\"%s\",%s,%s,%s,%s\n", point.label.c_str(),
                  fmt_double(point.metrics.area_overhead, 4).c_str(),
                  fmt_double(point.metrics.diameter, 0).c_str(),
                  fmt_double(point.metrics.avg_hops, 3).c_str(),
                  fmt_double(point.metrics.throughput_bound, 4).c_str());
    }
    return 0;
  }

  std::printf("\nCSV (all screened points):\n");
  std::printf("config,area_overhead,diameter,avg_hops,throughput_bound\n");
  for (const auto& point : points) {
    std::printf("\"%s\",%s,%s,%s,%s\n", point.label.c_str(),
                fmt_double(point.metrics.area_overhead, 4).c_str(),
                fmt_double(point.metrics.diameter, 0).c_str(),
                fmt_double(point.metrics.avg_hops, 3).c_str(),
                fmt_double(point.metrics.throughput_bound, 4).c_str());
  }
  return 0;
}
