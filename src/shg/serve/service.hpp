// Op layer of the resident customization service: parses one line-protocol
// request, executes it against the process-wide Session, and renders one
// response line. Transport-free — src/shg/serve/server.hpp owns sockets
// and the worker pool; tests and benches drive a Service directly.
//
// Protocol (one JSON object per line in, one per line out):
//
//   request  := {"op": OP, "id": scalar?, ...op fields}
//   OP       := "screen" | "customize" | "experiment" | "ping" | "shutdown"
//
//   screen     {"scenario": "a".."d"|"mempool"?, "row_skips": [int...]?,
//               "col_skips": [int...]?}
//   customize  {"scenario": ...?, "max_area_overhead": number?}
//   experiment {"grid": "RxC"?, "traffic": [string...]?,
//               "rates": [number...]?, "seeds": int?, "smoke": bool?,
//               "routing": "minimal"|"ugal"?}
//   The experiment report's "route_tables" section lists only topologies
//   within sim::kMaxSharedRouteTableRows; larger ones route live, so the
//   section shrinks as the grid grows (none from 56x56 up).
//
//   response := {"id": scalar, "op": OP?, "ok": bool, "error": string?,
//                "elapsed_us": int, "counters": {...}?, "tiers": {...},
//                "result": {...}?}
//
// Determinism contract (pinned by tests/concurrent_session_test.cpp and
// the bench_serve gates): the "result" member is byte-identical whether
// the request is served solo on a cold session or interleaved with
// arbitrary other requests on a warm shared one —
// results come from the session tiers, whose hits return the exact bits a
// cold computation produced. Everything else ("elapsed_us", "counters",
// "tiers") measures the serving process and legitimately varies with
// cache state and interleaving. "counters" carries the op's own exact
// engine accounting (screen: this request's candidate-tier hit/miss;
// experiment: this run's cell/hit/simulated counts); "tiers" snapshots the
// session-lifetime tier totals when the response is composed.
//
// Robustness: malformed requests — bad JSON, missing/unknown ops, wrong
// field types, out-of-range values — produce an {"ok": false, "error":
// ...} reply and never throw out of execute(), so one bad request can never
// take the serving process down.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "shg/customize/session.hpp"
#include "shg/eval/experiment.hpp"

namespace shg::serve {

/// Knobs of the default experiment campaign — shared by
/// examples/experiment_campaign.cpp and the "experiment" op so the server
/// response payload and the batch binary's report are byte-identical for
/// equal knobs (the CI smoke cmp's them).
struct CampaignParams {
  int rows = 8;
  int cols = 8;
  std::vector<std::string> traffic = {"uniform", "transpose",
                                      "hotspot:0,7:0.2"};
  std::vector<double> rates = {0.02, 0.05, 0.10, 0.15};
  int num_seeds = 3;
  bool smoke = false;  ///< shrinks simulated cycle counts for CI
  /// Routing policy ("minimal" | "ugal"). "ugal" also raises the campaign
  /// VC count to 4 (2 escape classes + 2 adaptive); the default stays at
  /// 2 VCs so default-knob campaign bytes are unchanged.
  std::string routing = "minimal";
};

/// The canonical campaign spec for the knobs: mesh + torus + SHG{4}/{2,5}
/// on the grid, one cell per (topology, traffic, rate, seed).
eval::ExperimentSpec make_campaign_spec(const CampaignParams& params);

/// Protocol operations.
enum class Op { kScreen, kCustomize, kExperiment, kPing, kShutdown };

/// The protocol name of an op ("screen", ...).
const char* op_name(Op op);

/// One parsed request. `valid` is false for malformed lines (with `error`
/// set); the id is preserved whenever the line parsed far enough to carry
/// one, so error replies still correlate.
struct Request {
  bool valid = false;
  std::string error;             ///< set when !valid
  std::string id_json = "null";  ///< rendered id value ("\"r1\"", "7", ...)
  std::string op_text;           ///< raw "op" string when present
  Op op = Op::kPing;
  // screen / customize:
  std::string scenario = "a";
  tech::ArchParams arch;            ///< resolved from `scenario`
  customize::Fingerprint arch_fp;   ///< screen-op coalescing key
  topo::ShgParams params;           ///< screen skip sets
  double max_area_overhead = 0.40;  ///< customize budget
  // experiment:
  CampaignParams campaign;
};

/// One composed response. to_line() renders the wire form (no trailing
/// newline); only `result_json` is covered by the byte-identity contract.
struct Response {
  std::string id_json = "null";
  std::string op_text;
  bool ok = false;
  std::string error;
  std::uint64_t elapsed_us = 0;
  bool has_counters = false;  ///< op-exact counters below are meaningful
  std::uint64_t op_hits = 0;
  std::uint64_t op_misses = 0;
  std::uint64_t op_simulated = 0;  ///< experiment op only
  std::string tiers_json;   ///< session-lifetime tier totals snapshot
  std::string result_json;  ///< deterministic payload; empty on error

  std::string to_line() const;
};

/// The op layer. Thread-safe: parse_request is const and touches no
/// mutable state; execute/execute_screen_batch may run concurrently from
/// any number of worker threads (every session's tiers are sharded and
/// locked).
class Service {
 public:
  explicit Service(customize::SessionOptions options = {});

  /// Parses one request line; never throws (malformed lines come back with
  /// valid == false).
  Request parse_request(const std::string& line) const;

  /// Executes one request (valid or not) into a response; never throws.
  Response execute(const Request& request);

  /// Executes coalesced screen requests sharing one arch (equal
  /// `arch_fp`) through a single screen_batch_cached call; one response
  /// per request, each byte-identical in "result" to its solo execution.
  std::vector<Response> execute_screen_batch(
      const std::vector<Request>& batch);

  /// True once a "shutdown" op has executed; transports stop accepting.
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_relaxed);
  }

  customize::Session& session() { return session_; }

 private:
  Response dispatch(const Request& request);

  customize::Session session_;
  std::atomic<bool> shutdown_{false};
};

}  // namespace shg::serve
