// Golden corpora: bit-identity contracts kept as data (tests/golden/*.txt)
// instead of a second implementation.
//
// Each corpus file holds one line per case, "<key> <fields...>", where the
// key is the running test's "Suite.Test" name, a '/', and a case label
// (spaces become '_'); doubles are written as 16-hex-digit IEEE-754 bit
// patterns. A check fails when the corpus has no line for the key or when
// the line differs, and prints the expected and the actual line. An
// intentional behaviour change is re-recorded by pasting the printed actual
// lines into the corpus, so the change shows up as a diff.
//
// Corpora:
//  * sim_results.txt -- SimResult bits (shg::sim::golden::expect_golden):
//      <key> cycles_run measured_packets drained ugal_nonminimal
//            offered accepted avg max p50 p95 p99 hops fairness
//  * cost_reports.txt -- CostReport bits (cost_model_test).
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

namespace shg::golden {

/// 16 hex digits.
inline std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// The IEEE-754 bit pattern of `value`.
inline std::string bits(double value) {
  return hex(std::bit_cast<std::uint64_t>(value));
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

/// The corpus `file` under tests/golden, loaded once per test binary.
inline const Corpus& corpus(const std::string& file) {
  static std::map<std::string, Corpus> loaded;
  const auto found = loaded.find(file);
  if (found != loaded.end()) return found->second;
  Corpus& c = loaded[file];
  const std::string path = std::string(SHG_GOLDEN_DIR) + "/" + file;
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
}

/// Checks "<key> <fields>" against the line of `file` keyed by the running
/// test and `label`.
inline void expect_line(const std::string& file, const std::string& label,
                        const std::string& fields) {
  const Corpus& c = corpus(file);
  for (const std::string& error : c.errors) ADD_FAILURE() << error;
  const std::string key = case_key(label);
  const std::string actual = key + " " + fields;
  const auto it = c.lines.find(key);
  if (it == c.lines.end()) {
    ADD_FAILURE() << "golden corpus " << file << " has no case " << key
                  << "\n  expected: (missing)\n  actual:   " << actual;
  } else if (it->second != actual) {
    ADD_FAILURE() << "golden mismatch for " << key
                  << "\n  expected: " << it->second
                  << "\n  actual:   " << actual;
  }
}

}  // namespace shg::golden

namespace shg::sim::golden {

using shg::golden::bits;
using shg::golden::topo_label;

/// The sim_results.txt fields (everything after the key) for one case.
inline std::string fields(const SimResult& r, long long ugal_nonminimal) {
  std::ostringstream out;
  out << r.cycles_run << ' ' << r.measured_packets << ' '
      << (r.drained ? 1 : 0) << ' ' << ugal_nonminimal;
  for (const double v :
       {r.offered_rate, r.accepted_rate, r.avg_packet_latency,
        r.max_packet_latency, r.p50_packet_latency, r.p95_packet_latency,
        r.p99_packet_latency, r.avg_hops, r.fairness}) {
    out << ' ' << bits(v);
  }
  return out.str();
}

/// Checks one run against the sim_results.txt line keyed by the running
/// test and `label`.
inline void expect_golden(const std::string& label, const SimResult& result,
                          long long ugal_nonminimal = 0) {
  shg::golden::expect_line("sim_results.txt", label,
                           fields(result, ugal_nonminimal));
}

}  // namespace shg::sim::golden
