#include "shg/sim/traffic_spec.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "shg/sim/concentration.hpp"
#include "shg/sim/trace.hpp"

namespace shg::sim {

namespace {

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string::size_type start = 0;
  while (true) {
    const auto pos = text.find(sep, start);
    if (pos == std::string::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

double parse_double(const std::string& token, const char* what) {
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  SHG_REQUIRE(!token.empty() && end == token.c_str() + token.size(),
              std::string("traffic spec: malformed ") + what + " '" + token +
                  "'");
  return value;
}

int parse_int(const std::string& token, const char* what) {
  char* end = nullptr;
  const long value = std::strtol(token.c_str(), &end, 10);
  SHG_REQUIRE(!token.empty() && end == token.c_str() + token.size(),
              std::string("traffic spec: malformed ") + what + " '" + token +
                  "'");
  return static_cast<int>(value);
}

std::uint64_t parse_u64(const std::string& token, const char* what) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  SHG_REQUIRE(!token.empty() && token[0] != '-' &&
                  end == token.c_str() + token.size(),
              std::string("traffic spec: malformed ") + what + " '" + token +
                  "'");
  return static_cast<std::uint64_t>(value);
}

/// %g-style formatting without trailing zeros, for canonical().
std::string fmt_number(double value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

void parse_pattern_part(const std::string& part, TrafficSpec& spec) {
  const std::vector<std::string> tokens = split(part, ':');
  const std::string& name = tokens.front();
  // A bare "trace" reaching this point lacked the "trace:<path>" shape
  // (the prefix is intercepted before the '/' split, since paths may
  // contain slashes).
  SHG_REQUIRE(name != "trace",
              "traffic spec: trace needs 'trace:<path>[@scale]'");
  const auto& known = known_pattern_names();
  SHG_REQUIRE(std::find(known.begin(), known.end(), name) != known.end(),
              "traffic spec: unknown pattern '" + name + "'");
  if (name == "hotspot") {
    SHG_REQUIRE(tokens.size() == 3,
                "traffic spec: hotspot needs 'hotspot:<tiles>:<fraction>'");
    for (const std::string& tile : split(tokens[1], ',')) {
      spec.hotspot_tiles.push_back(parse_int(tile, "hotspot tile"));
    }
    spec.hotspot_fraction = parse_double(tokens[2], "hotspot fraction");
    SHG_REQUIRE(spec.hotspot_fraction > 0.0 && spec.hotspot_fraction <= 1.0,
                "traffic spec: hotspot fraction must be in (0, 1]");
  } else if (name == "randperm") {
    SHG_REQUIRE(tokens.size() == 2,
                "traffic spec: randperm needs 'randperm:<seed>'");
    spec.randperm_seed = parse_u64(tokens[1], "randperm seed");
  } else {
    SHG_REQUIRE(tokens.size() == 1,
                "traffic spec: pattern '" + name + "' takes no arguments");
  }
  spec.pattern = name;
}

void parse_process_part(const std::string& part, TrafficSpec& spec) {
  const std::vector<std::string> tokens = split(part, ':');
  const std::string& name = tokens.front();
  if (name == "bernoulli") {
    SHG_REQUIRE(tokens.size() == 1,
                "traffic spec: bernoulli takes no arguments");
  } else if (name == "onoff") {
    SHG_REQUIRE(tokens.size() == 2,
                "traffic spec: on-off needs 'onoff:<alpha>,<beta>'");
    const std::vector<std::string> args = split(tokens[1], ',');
    SHG_REQUIRE(args.size() == 2,
                "traffic spec: on-off needs 'onoff:<alpha>,<beta>'");
    spec.on_off_alpha = parse_double(args[0], "on-off alpha");
    spec.on_off_beta = parse_double(args[1], "on-off beta");
    SHG_REQUIRE(spec.on_off_alpha > 0.0 && spec.on_off_alpha <= 1.0,
                "traffic spec: on-off alpha must be in (0, 1]");
    SHG_REQUIRE(spec.on_off_beta >= 0.0 && spec.on_off_beta < 1.0,
                "traffic spec: on-off beta must be in [0, 1)");
  } else {
    SHG_REQUIRE(false,
                "traffic spec: unknown injection process '" + name + "'");
  }
  spec.process = name;
}

}  // namespace

const std::vector<std::string>& known_pattern_names() {
  static const std::vector<std::string> names = {
      "uniform", "transpose", "bit-complement", "bit-reverse", "shuffle",
      "tornado", "neighbor",  "hotspot",        "randperm"};
  return names;
}

TrafficSpec TrafficSpec::parse(const std::string& text) {
  SHG_REQUIRE(!text.empty(), "traffic spec: empty spec");
  // Trace specs are intercepted before the '/' half-split: the path may
  // contain slashes, and a trace replaces both halves anyway.
  if (text.rfind("trace:", 0) == 0) {
    TrafficSpec spec;
    spec.pattern = "trace";
    spec.process = "trace";
    std::string rest = text.substr(6);
    const auto at = rest.rfind('@');
    if (at != std::string::npos) {
      spec.trace_scale = parse_double(rest.substr(at + 1), "trace scale");
      SHG_REQUIRE(spec.trace_scale > 0.0,
                  "traffic spec: trace scale must be positive");
      rest.resize(at);
    }
    SHG_REQUIRE(!rest.empty(),
                "traffic spec: trace needs 'trace:<path>[@scale]'");
    spec.trace_path = rest;
    return spec;
  }
  const std::vector<std::string> halves = split(text, '/');
  SHG_REQUIRE(halves.size() <= 2,
              "traffic spec: expected '<pattern>[/<process>]', got '" + text +
                  "'");
  TrafficSpec spec;
  parse_pattern_part(halves[0], spec);
  if (halves.size() == 2) parse_process_part(halves[1], spec);
  return spec;
}

std::string TrafficSpec::canonical() const {
  if (is_trace()) {
    std::string text = "trace:" + trace_path;
    if (trace_scale != 1.0) text += "@" + fmt_number(trace_scale);
    return text;
  }
  std::ostringstream os;
  os << pattern;
  if (pattern == "hotspot") {
    os << ':';
    for (std::size_t i = 0; i < hotspot_tiles.size(); ++i) {
      if (i > 0) os << ',';
      os << hotspot_tiles[i];
    }
    os << ':' << fmt_number(hotspot_fraction);
  }
  if (pattern == "randperm") {
    os << ':' << randperm_seed;
  }
  if (process != "bernoulli") {
    os << '/' << process << ':' << fmt_number(on_off_alpha) << ','
       << fmt_number(on_off_beta);
  }
  return os.str();
}

std::unique_ptr<TrafficPattern> TrafficSpec::make_pattern(
    int rows, int cols, int concentration) const {
  SHG_REQUIRE(!is_trace(),
              "traffic spec '" + canonical() +
                  "' is a trace; its replay needs no pattern");
  SHG_REQUIRE(rows >= 1 && cols >= 1, "traffic spec: empty grid");
  // Patterns are instantiated over the terminal grid: with concentration 1
  // it IS the router grid, otherwise each router contributes a sub-grid of
  // terminals (sim/concentration.hpp) and spatial patterns keep their
  // meaning on the finer grid.
  const Concentration conc = Concentration::make(rows, cols, concentration);
  const int trows = conc.terminal_rows();
  const int tcols = conc.terminal_cols();
  const int n = conc.terminals();
  // Pattern/shape mismatches (square-only transpose, power-of-two-only
  // shuffle, out-of-range hotspot ids, ...) surface from the pattern
  // constructors as bare preconditions; rethrow them here with the one
  // thing the caller can act on — which spec failed on which grid.
  try {
    if (pattern == "uniform") return make_uniform(n);
    if (pattern == "transpose") return make_transpose(trows, tcols);
    if (pattern == "bit-complement") return make_bit_complement(n);
    if (pattern == "bit-reverse") return make_bit_reverse(n);
    if (pattern == "shuffle") return make_shuffle(n);
    if (pattern == "tornado") return make_tornado(trows, tcols);
    if (pattern == "neighbor") return make_neighbor(trows, tcols);
    if (pattern == "hotspot") {
      return make_hotspot(n, hotspot_tiles, hotspot_fraction);
    }
    if (pattern == "randperm") return make_randperm(n, randperm_seed);
  } catch (const Error& e) {
    throw Error("traffic spec '" + canonical() +
                "' is not applicable to the " + std::to_string(trows) + "x" +
                std::to_string(tcols) + " terminal grid: " + e.what());
  }
  SHG_REQUIRE(false, "traffic spec: unknown pattern '" + pattern + "'");
  return nullptr;  // unreachable
}

void TrafficSpec::resolve_trace() {
  if (!is_trace() || trace != nullptr) return;
  trace = std::make_shared<const Trace>(load_trace(trace_path));
}

std::uint64_t TrafficSpec::trace_content_hash() const {
  return trace != nullptr ? trace->content_hash() : 0;
}

Injection TrafficSpec::injection() const {
  if (is_trace()) {
    SHG_REQUIRE(trace != nullptr,
                "traffic spec '" + canonical() +
                    "' has no loaded trace; call resolve_trace() first");
    return Injection::trace(trace, trace_scale);
  }
  if (process == "onoff") return Injection::onoff(on_off_alpha, on_off_beta);
  return Injection();
}

}  // namespace shg::sim
