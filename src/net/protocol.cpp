#include "net/protocol.h"

#include <cstdio>

namespace ap::net {

const char* request_type_name(RequestType t) {
  switch (t) {
    case RequestType::Compile: return "compile";
    case RequestType::Run: return "run";
    case RequestType::Metrics: return "metrics";
    case RequestType::Ping: return "ping";
    case RequestType::Hello: return "hello";
    case RequestType::Register: return "register";
    case RequestType::Heartbeat: return "heartbeat";
    case RequestType::CacheProbe: return "cache_probe";
    case RequestType::CacheFill: return "cache_fill";
    case RequestType::Forward: return "forward";
    case RequestType::Stats: return "stats";
    case RequestType::UnitProbe: return "unit_probe";
    case RequestType::UnitFill: return "unit_fill";
  }
  return "?";
}

const char* status_name(Status s) {
  switch (s) {
    case Status::Ok: return "ok";
    case Status::Error: return "error";
    case Status::Overloaded: return "overloaded";
    case Status::DeadlineExceeded: return "deadline_exceeded";
    case Status::UnsupportedVersion: return "unsupported_version";
    case Status::WorkerLost: return "worker_lost";
    case Status::ProtocolError: return "protocol_error";
  }
  return "?";
}

std::string format_key(uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

bool parse_key(std::string_view hex, uint64_t* out) {
  if (hex.empty() || hex.size() > 16) return false;
  uint64_t v = 0;
  for (char c : hex) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else return false;
    v = (v << 4) | static_cast<uint64_t>(digit);
  }
  *out = v;
  return true;
}

namespace {

json::Value pipeline_options_to_json(const driver::PipelineOptions& o) {
  json::Value par = json::Value::object();
  par.set("min_trip", o.par.min_trip)
      .set("normalize", o.par.normalize)
      .set("mark_nested", o.par.mark_nested)
      .set("use_banerjee", o.par.use_banerjee)
      .set("use_siv_refinement", o.par.use_siv_refinement)
      .set("collect_all_blockers", o.par.collect_all_blockers);
  json::Value conv = json::Value::object();
  conv.set("max_stmts", static_cast<int64_t>(o.conv.max_stmts))
      .set("max_callee_calls", o.conv.max_callee_calls)
      .set("require_in_loop", o.conv.require_in_loop)
      .set("eliminate_dead_units", o.conv.eliminate_dead_units)
      .set("max_passes", o.conv.max_passes);
  json::Value annot = json::Value::object();
  annot.set("require_in_loop", o.annot.require_in_loop);
  json::Value reverse = json::Value::object();
  reverse.set("tolerate_reordering", o.reverse.tolerate_reordering)
      .set("tolerate_forward_subst", o.reverse.tolerate_forward_subst)
      .set("tolerate_literals", o.reverse.tolerate_literals)
      .set("fallback_to_hints", o.reverse.fallback_to_hints);

  const char* config = "none";
  switch (o.config) {
    case driver::InlineConfig::None: config = "none"; break;
    case driver::InlineConfig::Conventional: config = "conv"; break;
    case driver::InlineConfig::Annotation: config = "annot"; break;
  }
  json::Value out = json::Value::object();
  out.set("config", config)
      .set("par", std::move(par))
      .set("conv", std::move(conv))
      .set("annot", std::move(annot))
      .set("reverse", std::move(reverse));
  // Pass-manager controls are rendered only when set.
  if (!o.stop_after.empty()) out.set("stop_after", o.stop_after);
  if (!o.print_after.empty()) out.set("print_after", o.print_after);
  return out;
}

json::Value interp_options_to_json(const interp::InterpOptions& o) {
  json::Value out = json::Value::object();
  out.set("engine", o.engine == interp::Engine::Tree ? "tree" : "bytecode")
      .set("threads", o.num_threads)
      .set("enable_parallel", o.enable_parallel)
      .set("max_steps", o.max_steps)
      .set("check_bounds", o.check_bounds);
  return out;
}

json::Value compile_result_to_json(const service::CompileResult& r) {
  json::Value loops = json::Value::array();
  for (int64_t id : r.parallel_loops) loops.push(id);
  json::Value passes = json::Value::array();
  for (const auto& p : r.timings.passes) {
    json::Value rec = json::Value::object();
    rec.set("name", p.name)
        .set("wall_ms", p.wall_ms)
        .set("units", static_cast<int64_t>(p.units))
        .set("diags", static_cast<int64_t>(p.diagnostics));
    // Per-boundary counters, rendered only for passes that snapshotted.
    if (p.unit_hits + p.unit_misses > 0) {
      rec.set("unit_hits", static_cast<int64_t>(p.unit_hits))
          .set("unit_misses", static_cast<int64_t>(p.unit_misses))
          .set("unit_disk_hits", static_cast<int64_t>(p.unit_disk_hits))
          .set("unit_peer_hits", static_cast<int64_t>(p.unit_peer_hits))
          .set("unit_invalidated", static_cast<int64_t>(p.unit_invalidated));
    }
    passes.push(std::move(rec));
  }
  json::Value timings = json::Value::object();
  timings.set("total_ms", r.timings.total_ms)
      .set("passes", std::move(passes));
  json::Value out = json::Value::object();
  out.set("ok", r.ok)
      .set("error", r.error)
      .set("cache_hit", r.cache_hit)
      .set("peer_hit", r.peer_hit)
      .set("parallel_loops", std::move(loops))
      .set("code_lines", static_cast<int64_t>(r.code_lines))
      .set("dep_tests", static_cast<int64_t>(r.dep_tests))
      .set("dep_tests_unique", static_cast<int64_t>(r.dep_tests_unique))
      .set("unit_hits", static_cast<int64_t>(r.unit_hits))
      .set("unit_misses", static_cast<int64_t>(r.unit_misses))
      .set("unit_invalidated", static_cast<int64_t>(r.unit_invalidated))
      .set("unit_disk_hits", static_cast<int64_t>(r.unit_disk_hits))
      .set("unit_peer_hits", static_cast<int64_t>(r.unit_peer_hits))
      .set("timings", std::move(timings))
      .set("stopped_early", r.stopped_early)
      .set("program", r.program_text);
  if (!r.print_dump.empty()) out.set("print_dump", r.print_dump);
  return out;
}

json::Value run_payload_to_json(const RunPayload& r) {
  json::Value out = json::Value::object();
  out.set("ok", r.ok)
      .set("stopped", r.stopped)
      .set("stop_message", r.stop_message)
      .set("error", r.error)
      .set("output", r.output)
      .set("statements", r.statements)
      .set("statements_parallel", r.statements_parallel)
      .set("instructions", r.instructions)
      .set("wall_ms", r.wall_ms);
  return out;
}

json::Value worker_info_to_json(const WorkerInfo& w) {
  json::Value out = json::Value::object();
  out.set("id", w.id).set("host", w.host).set("port", w.port);
  return out;
}

json::Value worker_load_to_json(const WorkerLoad& l) {
  json::Value out = json::Value::object();
  out.set("queue_depth", l.queue_depth)
      .set("running", l.running)
      .set("cache_entries", l.cache_entries)
      .set("cache_hits", l.cache_hits)
      .set("cache_misses", l.cache_misses)
      .set("peer_hits", l.peer_hits);
  if (!l.hist.empty()) out.set("hist", l.hist);
  return out;
}

}  // namespace

bool carries_compile_payload(const Request& r) {
  RequestType t = r.type == RequestType::Forward ? r.inner : r.type;
  return t == RequestType::Compile || t == RequestType::Run;
}

bool carries_interp_options(const Request& r) {
  return (r.type == RequestType::Forward ? r.inner : r.type) ==
         RequestType::Run;
}

json::Value request_to_json(const Request& r) {
  json::Value out = json::Value::object();
  out.set("v", r.version)
      .set("type", request_type_name(r.type))
      .set("id", r.id);
  if (r.trace) out.set("trace", true);
  if (r.trace_id) out.set("trace_id", format_key(r.trace_id));
  if (carries_compile_payload(r)) {
    out.set("name", r.name)
        .set("source", r.source)
        .set("annotations", r.annotations)
        .set("options", pipeline_options_to_json(r.options));
    if (r.deadline_ms > 0) out.set("deadline_ms", r.deadline_ms);
  }
  if (carries_interp_options(r))
    out.set("interp", interp_options_to_json(r.interp));
  switch (r.type) {
    case RequestType::Register:
      out.set("worker", worker_info_to_json(r.worker));
      break;
    case RequestType::Heartbeat:
      out.set("worker", worker_info_to_json(r.worker))
          .set("load", worker_load_to_json(r.load));
      if (r.leaving) out.set("leaving", true);
      break;
    case RequestType::CacheProbe:
      out.set("key", r.key);
      break;
    case RequestType::CacheFill:
      out.set("key", r.key).set("payload", r.payload);
      break;
    case RequestType::UnitProbe:
      out.set("key", r.key);
      break;
    case RequestType::UnitFill:
      out.set("key", r.key)
          .set("payload", r.payload)
          .set("boundary", r.boundary);
      break;
    case RequestType::Forward:
      out.set("inner", request_type_name(r.inner)).set("attempt", r.attempt);
      break;
    default:
      break;
  }
  return out;
}

json::Value response_to_json(const Response& r) {
  json::Value out = json::Value::object();
  out.set("v", kProtocolVersion)
      .set("id", r.id)
      .set("status", status_name(r.status));
  if (!r.error.empty()) out.set("error", r.error);
  if (r.has_result) out.set("result", compile_result_to_json(r.result));
  if (r.has_run) out.set("run", run_payload_to_json(r.run));
  if (r.metrics.is_object()) out.set("metrics", r.metrics);
  if (r.trace.is_object()) out.set("trace", r.trace);
  if (r.has_hello) {
    json::Value hello = json::Value::object();
    hello.set("version", r.hello.version)
        .set("role", r.hello.role)
        .set("draining", r.hello.draining);
    out.set("hello", std::move(hello));
  }
  if (r.found || !r.payload.empty()) {
    out.set("found", r.found);
    if (!r.payload.empty()) out.set("payload", r.payload);
  }
  if (r.has_peers) {
    json::Value peers = json::Value::array();
    for (const auto& p : r.peers) peers.push(worker_info_to_json(p));
    out.set("peers", std::move(peers));
  }
  return out;
}

}  // namespace ap::net
