#include "shg/serve/service.hpp"

#include <chrono>
#include <cstdio>

#include "shg/common/error.hpp"
#include "shg/common/log.hpp"
#include "shg/customize/search.hpp"
#include "shg/serve/json.hpp"
#include "shg/tech/presets.hpp"
#include "shg/topo/generators.hpp"

namespace shg::serve {

namespace {

using Clock = std::chrono::steady_clock;

std::string u64(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(value));
  return buf;
}

/// Renders an "id" value back to its wire form. Ids must be scalars so
/// the (string) wire form is a total order key for clients.
std::string render_id(const JsonValue& id) {
  switch (id.kind()) {
    case JsonValue::Kind::kNull:
      return "null";
    case JsonValue::Kind::kBool:
      return id.as_bool() ? "true" : "false";
    case JsonValue::Kind::kNumber:
      return json_double(id.as_double());
    case JsonValue::Kind::kString:
      return json_quote(id.as_string());
    default:
      throw Error("\"id\" must be a scalar (string, number, bool or null)");
  }
}

/// The log context of a request: the unquoted id ("" for null ids), so a
/// server sink can tag warning lines "req-42: ...".
std::string log_context_of(const std::string& id_json) {
  if (id_json == "null") return std::string();
  if (!id_json.empty() && id_json.front() == '"') {
    return JsonValue::parse(id_json).as_string();
  }
  return id_json;
}

tech::ArchParams resolve_scenario(const std::string& name) {
  if (name == "a") return tech::knc_scenario(tech::KncScenario::kA);
  if (name == "b") return tech::knc_scenario(tech::KncScenario::kB);
  if (name == "c") return tech::knc_scenario(tech::KncScenario::kC);
  if (name == "d") return tech::knc_scenario(tech::KncScenario::kD);
  if (name == "mempool") return tech::mempool_arch();
  throw Error("unknown scenario \"" + name +
              "\" (expected \"a\", \"b\", \"c\", \"d\" or \"mempool\")");
}

/// Rejects member names outside `allowed` (nullptr-terminated), so typos
/// ("scneario") come back as errors instead of silently using defaults.
void require_members(const JsonValue& doc, const char* const* allowed) {
  for (const auto& [name, value] : doc.members()) {
    (void)value;
    bool known = false;
    for (const char* const* a = allowed; *a != nullptr; ++a) {
      if (name == *a) {
        known = true;
        break;
      }
    }
    SHG_REQUIRE(known, "unknown request field \"" + name + "\"");
  }
}

std::set<int> parse_skips(const JsonValue& value, bool row_skips,
                          const tech::ArchParams& arch) {
  // Mirrors make_sparse_hamming's bounds so one bad request fails at parse
  // time — before it can poison a coalesced screen batch.
  const int bound = row_skips ? arch.cols : arch.rows;
  const char* what = row_skips ? "row skip distances must lie in {2..C-1}"
                               : "column skip distances must lie in {2..R-1}";
  std::set<int> out;
  for (const JsonValue& item : value.items()) {
    const long long skip = item.as_int();
    SHG_REQUIRE(skip >= 2 && skip < bound, what);
    out.insert(static_cast<int>(skip));
  }
  return out;
}

void parse_campaign(const JsonValue& doc, CampaignParams& campaign) {
  // Service limits: a request sizes the work it asks for; these caps keep
  // one hostile request from monopolizing the process for hours.
  if (const JsonValue* grid = doc.find("grid")) {
    int rows = 0;
    int cols = 0;
    const bool parsed =
        std::sscanf(grid->as_string().c_str(), "%dx%d", &rows, &cols) == 2;
    // >= 6x5: the campaign's fixed SHG skip sets ({4}, {2,5}) need
    // 4 < cols and 5 < rows (make_sparse_hamming's Section III-b bounds).
    SHG_REQUIRE(parsed && rows >= 6 && cols >= 5 && rows <= 64 && cols <= 64,
                "\"grid\" must be \"RxC\" with 6 <= R <= 64, 5 <= C <= 64");
    campaign.rows = rows;
    campaign.cols = cols;
  }
  if (const JsonValue* traffic = doc.find("traffic")) {
    SHG_REQUIRE(!traffic->items().empty() && traffic->items().size() <= 16,
                "\"traffic\" must list 1..16 workload specs");
    campaign.traffic.clear();
    for (const JsonValue& item : traffic->items()) {
      campaign.traffic.push_back(item.as_string());
    }
  }
  if (const JsonValue* rates = doc.find("rates")) {
    SHG_REQUIRE(!rates->items().empty() && rates->items().size() <= 64,
                "\"rates\" must list 1..64 injection rates");
    campaign.rates.clear();
    for (const JsonValue& item : rates->items()) {
      const double rate = item.as_double();
      SHG_REQUIRE(rate > 0.0 && rate <= 1.0,
                  "injection rates must lie in (0, 1]");
      campaign.rates.push_back(rate);
    }
  }
  if (const JsonValue* seeds = doc.find("seeds")) {
    const long long count = seeds->as_int();
    SHG_REQUIRE(count >= 1 && count <= 64, "\"seeds\" must lie in 1..64");
    campaign.num_seeds = static_cast<int>(count);
  }
  if (const JsonValue* smoke = doc.find("smoke")) {
    campaign.smoke = smoke->as_bool();
  }
  if (const JsonValue* routing = doc.find("routing")) {
    // Validate at parse time so a typo fails the request, not the worker.
    campaign.routing =
        sim::routing_policy_name(sim::parse_routing_policy(
            routing->as_string()));
  }
}

std::string render_int_set(const std::set<int>& values) {
  std::string out = "[";
  bool first = true;
  for (int v : values) {
    if (!first) out += ',';
    first = false;
    out += std::to_string(v);
  }
  out += ']';
  return out;
}

std::string render_metrics(const customize::CandidateMetrics& metrics) {
  return "{\"area_overhead\":" + json_double(metrics.area_overhead) +
         ",\"avg_hops\":" + json_double(metrics.avg_hops) +
         ",\"diameter\":" + json_double(metrics.diameter) +
         ",\"throughput_bound\":" + json_double(metrics.throughput_bound) +
         "}";
}

std::string render_screen_result(const Request& request,
                                 const customize::CandidateMetrics& metrics) {
  return "{\"scenario\":" + json_quote(request.scenario) +
         ",\"row_skips\":" + render_int_set(request.params.row_skips) +
         ",\"col_skips\":" + render_int_set(request.params.col_skips) +
         ",\"metrics\":" + render_metrics(metrics) + "}";
}

std::string render_tier(const customize::CacheStats& stats) {
  return "{\"hits\":" + u64(stats.hits) + ",\"misses\":" + u64(stats.misses) +
         ",\"insertions\":" + u64(stats.insertions) +
         ",\"evictions\":" + u64(stats.evictions) + "}";
}

std::string render_tiers(customize::Session& session) {
  return "{\"candidate\":" + render_tier(session.stats()) +
         ",\"sim\":" + render_tier(session.sim_stats()) +
         ",\"artifact\":{\"hits\":" + u64(session.artifact_hits()) +
         ",\"misses\":" + u64(session.artifact_misses()) + "}}";
}

/// Stamps the process metadata of a finished response: elapsed time and
/// the session-lifetime tier snapshot (the fields OUTSIDE the result
/// byte-identity contract).
void finish_response(Response& response, Clock::time_point start,
                     customize::Session& session) {
  response.elapsed_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
  response.tiers_json = render_tiers(session);
}

}  // namespace

eval::ExperimentSpec make_campaign_spec(const CampaignParams& params) {
  // The campaign of examples/experiment_campaign.cpp, spelled once: the
  // server's "experiment" op and the batch binary must produce
  // byte-identical reports for equal knobs (the CI smoke cmp's them).
  eval::ExperimentSpec spec;
  spec.name = "campaign-" + std::to_string(params.rows) + "x" +
              std::to_string(params.cols);
  spec.topologies.push_back(
      eval::TopologyCase{topo::make_mesh(params.rows, params.cols), {}, ""});
  spec.topologies.push_back(
      eval::TopologyCase{topo::make_torus(params.rows, params.cols), {}, ""});
  spec.topologies.push_back(eval::TopologyCase{
      topo::make_sparse_hamming(params.rows, params.cols, {4}, {2, 5}),
      {},
      ""});
  for (const std::string& workload : params.traffic) {
    spec.traffic.push_back(eval::TrafficCase{workload, ""});
  }
  spec.rates = params.rates;
  for (int s = 1; s <= params.num_seeds; ++s) {
    spec.seeds.push_back(static_cast<std::uint64_t>(s));
  }
  // "minimal" keeps the historical 2-VC config so default-knob campaign
  // bytes (which the CI smoke cmp's against golden batch output) are
  // unchanged; "ugal" needs 2 escape classes + adaptive VCs on top.
  const sim::RoutingPolicy policy = sim::parse_routing_policy(params.routing);
  spec.config.sim.routing_policy = policy;
  if (policy == sim::RoutingPolicy::kUgal) {
    spec.name += "-ugal";
    spec.config.sim.num_vcs = 4;
  } else {
    spec.config.sim.num_vcs = 2;
  }
  spec.config.sim.buffer_depth_flits = 8;
  spec.config.sim.warmup_cycles = params.smoke ? 150 : 500;
  spec.config.sim.measure_cycles = params.smoke ? 400 : 2000;
  spec.config.sim.drain_cycles = params.smoke ? 6000 : 20000;
  return spec;
}

const char* op_name(Op op) {
  switch (op) {
    case Op::kScreen:
      return "screen";
    case Op::kCustomize:
      return "customize";
    case Op::kExperiment:
      return "experiment";
    case Op::kPing:
      return "ping";
    case Op::kShutdown:
      return "shutdown";
  }
  return "?";
}

Service::Service(customize::SessionOptions options)
    : session_(std::move(options)) {}

Request Service::parse_request(const std::string& line) const {
  Request request;
  JsonValue doc;
  try {
    doc = JsonValue::parse(line);
    SHG_REQUIRE(doc.is_object(), "request must be a JSON object");
  } catch (const std::exception& e) {
    request.error = e.what();
    return request;
  }
  try {
    // The id first: later failures keep it, so error replies correlate.
    if (const JsonValue* id = doc.find("id")) request.id_json = render_id(*id);

    const JsonValue* op = doc.find("op");
    SHG_REQUIRE(op != nullptr, "request is missing the \"op\" field");
    request.op_text = op->as_string();
    if (request.op_text == "screen") {
      request.op = Op::kScreen;
    } else if (request.op_text == "customize") {
      request.op = Op::kCustomize;
    } else if (request.op_text == "experiment") {
      request.op = Op::kExperiment;
    } else if (request.op_text == "ping") {
      request.op = Op::kPing;
    } else if (request.op_text == "shutdown") {
      request.op = Op::kShutdown;
    } else {
      throw Error("unknown op \"" + request.op_text + "\"");
    }

    switch (request.op) {
      case Op::kScreen: {
        static const char* const kAllowed[] = {
            "id", "op", "scenario", "row_skips", "col_skips", nullptr};
        require_members(doc, kAllowed);
        if (const JsonValue* s = doc.find("scenario")) {
          request.scenario = s->as_string();
        }
        request.arch = resolve_scenario(request.scenario);
        if (const JsonValue* v = doc.find("row_skips")) {
          request.params.row_skips = parse_skips(*v, true, request.arch);
        }
        if (const JsonValue* v = doc.find("col_skips")) {
          request.params.col_skips = parse_skips(*v, false, request.arch);
        }
        request.arch_fp = customize::fingerprint_arch(request.arch);
        break;
      }
      case Op::kCustomize: {
        static const char* const kAllowed[] = {
            "id", "op", "scenario", "max_area_overhead", nullptr};
        require_members(doc, kAllowed);
        if (const JsonValue* s = doc.find("scenario")) {
          request.scenario = s->as_string();
        }
        request.arch = resolve_scenario(request.scenario);
        if (const JsonValue* v = doc.find("max_area_overhead")) {
          request.max_area_overhead = v->as_double();
          SHG_REQUIRE(request.max_area_overhead > 0.0 &&
                          request.max_area_overhead <= 10.0,
                      "\"max_area_overhead\" must lie in (0, 10]");
        }
        break;
      }
      case Op::kExperiment: {
        static const char* const kAllowed[] = {
            "id",    "op",    "grid",    "traffic", "rates",
            "seeds", "smoke", "routing", nullptr};
        require_members(doc, kAllowed);
        parse_campaign(doc, request.campaign);
        break;
      }
      case Op::kPing:
      case Op::kShutdown: {
        static const char* const kAllowed[] = {"id", "op", nullptr};
        require_members(doc, kAllowed);
        break;
      }
    }
    request.valid = true;
  } catch (const std::exception& e) {
    request.valid = false;
    request.error = e.what();
  }
  return request;
}

Response Service::dispatch(const Request& request) {
  Response response;
  switch (request.op) {
    case Op::kScreen:
      // Reached only via execute_screen_batch.
      throw Error("internal: screen requests dispatch through the batch path");
    case Op::kCustomize: {
      customize::SearchOptions options;
      options.session = &session_;
      const customize::SearchResult result = customize::customize_greedy(
          request.arch, customize::Goal{request.max_area_overhead}, options);
      response.result_json =
          "{\"scenario\":" + json_quote(request.scenario) +
          ",\"row_skips\":" + render_int_set(result.params.row_skips) +
          ",\"col_skips\":" + render_int_set(result.params.col_skips) +
          ",\"metrics\":" + render_metrics(result.metrics) +
          ",\"steps\":" + std::to_string(result.history.size()) + "}";
      break;
    }
    case Op::kExperiment: {
      eval::ExperimentSpec spec = make_campaign_spec(request.campaign);
      spec.session = &session_;
      const eval::ExperimentReport report = eval::run_experiment(spec);
      // The report is embedded as ONE escaped string so the payload stays
      // byte-exact: clients unescape it and may cmp against the batch
      // binary's file (the CI smoke does).
      response.result_json =
          "{\"report\":" + json_quote(eval::experiment_to_json(report)) + "}";
      response.has_counters = true;
      response.op_hits = report.sim_cache_hits;
      response.op_misses = report.sim_cells - report.sim_cache_hits;
      response.op_simulated = report.sim_simulated;
      break;
    }
    case Op::kPing:
      response.result_json = "{\"pong\":true}";
      break;
    case Op::kShutdown:
      shutdown_.store(true, std::memory_order_relaxed);
      response.result_json = "{\"stopping\":true}";
      break;
  }
  return response;
}

Response Service::execute(const Request& request) {
  if (request.valid && request.op == Op::kScreen) {
    return execute_screen_batch({request}).front();
  }
  const Clock::time_point start = Clock::now();
  Response response;
  response.id_json = request.id_json;
  response.op_text = request.op_text;
  if (!request.valid) {
    response.error = request.error;
  } else {
    // Warnings emitted while serving this request (disk-tier discards
    // foremost) carry its id through the thread-local log context.
    const log::ScopedContext context(log_context_of(request.id_json));
    try {
      response = dispatch(request);
      response.id_json = request.id_json;
      response.op_text = request.op_text;
      response.ok = true;
    } catch (const std::exception& e) {
      response = Response{};
      response.id_json = request.id_json;
      response.op_text = request.op_text;
      response.error = e.what();
    }
  }
  finish_response(response, start, session_);
  return response;
}

std::vector<Response> Service::execute_screen_batch(
    const std::vector<Request>& batch) {
  const Clock::time_point start = Clock::now();
  std::vector<Response> responses(batch.size());
  if (batch.empty()) return responses;

  std::vector<topo::ShgParams> params;
  params.reserve(batch.size());
  for (const Request& request : batch) {
    SHG_REQUIRE(request.valid && request.op == Op::kScreen &&
                    request.arch_fp == batch.front().arch_fp,
                "screen batches must hold valid screen requests sharing one "
                "architecture");
    params.push_back(request.params);
  }

  customize::ScreenBatchStats stats;
  std::vector<customize::CandidateMetrics> metrics;
  std::string batch_error;
  try {
    metrics = customize::screen_batch_cached(batch.front().arch, params,
                                             session_, &stats);
  } catch (const std::exception& e) {
    batch_error = e.what();
  }

  for (std::size_t i = 0; i < batch.size(); ++i) {
    Response& response = responses[i];
    response.id_json = batch[i].id_json;
    response.op_text = batch[i].op_text;
    if (!batch_error.empty()) {
      response.error = batch_error;
    } else {
      response.ok = true;
      response.has_counters = true;
      response.op_hits = stats.hit[i] ? 1 : 0;
      response.op_misses = stats.hit[i] ? 0 : 1;
      response.result_json = render_screen_result(batch[i], metrics[i]);
    }
    finish_response(response, start, session_);
  }
  return responses;
}

std::string Response::to_line() const {
  std::string out = "{\"id\":" + id_json;
  if (!op_text.empty()) out += ",\"op\":" + json_quote(op_text);
  out += ",\"ok\":";
  out += ok ? "true" : "false";
  if (!error.empty()) out += ",\"error\":" + json_quote(error);
  out += ",\"elapsed_us\":" + u64(elapsed_us);
  if (has_counters) {
    out += ",\"counters\":{\"hits\":" + u64(op_hits) +
           ",\"misses\":" + u64(op_misses) +
           ",\"simulated\":" + u64(op_simulated) + "}";
  }
  if (!tiers_json.empty()) out += ",\"tiers\":" + tiers_json;
  if (!result_json.empty()) out += ",\"result\":" + result_json;
  out += '}';
  return out;
}

}  // namespace shg::serve
