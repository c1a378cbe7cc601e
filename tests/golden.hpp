// Golden SimResult corpus: the simulator's bit-identity contract kept as
// data (tests/golden/sim_results.txt) instead of a second engine.
//
// One line per case:
//
//   <key> cycles_run measured_packets drained ugal_nonminimal
//         offered accepted avg max p50 p95 p99 hops fairness
//
// with the nine SimResult doubles as 16-hex-digit bit patterns. The key is
// the running test's "Suite.Test" name, a '/', and a case label (spaces
// become '_'). expect_golden fails when the corpus has no line for the key
// or when the line differs, and prints the expected and the actual line.
// An intentional behaviour change is re-recorded by pasting the printed
// actual lines into the corpus, so the change shows up as a diff.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "shg/sim/simulator.hpp"
#include "shg/topo/topology.hpp"

namespace shg::sim::golden {

inline std::string bits(double value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(value)));
  return buf;
}

/// The corpus line for one case.
inline std::string line(const std::string& key, const SimResult& r,
                        long long ugal_nonminimal) {
  std::ostringstream out;
  out << key << ' ' << r.cycles_run << ' ' << r.measured_packets << ' '
      << (r.drained ? 1 : 0) << ' ' << ugal_nonminimal;
  for (const double v :
       {r.offered_rate, r.accepted_rate, r.avg_packet_latency,
        r.max_packet_latency, r.p50_packet_latency, r.p95_packet_latency,
        r.p99_packet_latency, r.avg_hops, r.fairness}) {
    out << ' ' << bits(v);
  }
  return out.str();
}

/// "<family> <rows>x<cols>[ c<concentration>]".
inline std::string topo_label(const topo::Topology& topo) {
  std::string label = topo.name() + " " + std::to_string(topo.rows()) + "x" +
                      std::to_string(topo.cols());
  if (topo.concentration() > 1) {
    label += " c" + std::to_string(topo.concentration());
  }
  return label;
}

/// "Suite.Test/<label>" for the running test, with spaces replaced.
inline std::string case_key(const std::string& label) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string key = std::string(info->test_suite_name()) + "." +
                    info->name() + "/" + label;
  for (char& c : key) {
    if (c == ' ') c = '_';
  }
  return key;
}

struct Corpus {
  std::map<std::string, std::string> lines;  ///< key -> whole line
  std::vector<std::string> errors;           ///< unreadable or duplicate
};

inline const Corpus& corpus() {
  static const Corpus loaded = [] {
    Corpus c;
    const std::string path = std::string(SHG_GOLDEN_DIR) + "/sim_results.txt";
    std::ifstream in(path);
    if (!in) c.errors.push_back("cannot open " + path);
    std::string text;
    while (std::getline(in, text)) {
      while (!text.empty() && (text.back() == '\r' || text.back() == ' ')) {
        text.pop_back();
      }
      if (text.empty() || text.front() == '#') continue;
      const std::string key = text.substr(0, text.find(' '));
      if (!c.lines.emplace(key, text).second) {
        c.errors.push_back("duplicate key " + key + " in " + path);
      }
    }
    return c;
  }();
  return loaded;
}

/// Checks one run against the corpus line keyed by the running test and
/// `label`.
inline void expect_golden(const std::string& label, const SimResult& result,
                          long long ugal_nonminimal = 0) {
  const Corpus& c = corpus();
  for (const std::string& error : c.errors) ADD_FAILURE() << error;
  const std::string key = case_key(label);
  const std::string actual = line(key, result, ugal_nonminimal);
  const auto it = c.lines.find(key);
  if (it == c.lines.end()) {
    ADD_FAILURE() << "golden corpus has no case " << key
                  << "\n  expected: (missing)\n  actual:   " << actual;
  } else if (it->second != actual) {
    ADD_FAILURE() << "golden mismatch for " << key
                  << "\n  expected: " << it->second
                  << "\n  actual:   " << actual;
  }
}

}  // namespace shg::sim::golden
