// The wire protocol spoken between apserved, apclient and the fleet.
//
// Every frame payload is one binary TLV message (binproto.h). Requests
// carry the protocol version (which must equal kProtocolVersion), a
// type, a client-chosen id echoed in the response, and per-type fields:
//
//   compile     — source text, annotation text, full PipelineOptions
//   run         — compile fields plus a full InterpOptions encoding; the
//                 server compiles (uncached path: execution needs the live
//                 AST with its OMP metadata) and executes the result
//   metrics     — no payload; returns cache + server counters
//   stats       — no payload; returns the live metrics document plus
//                 latency-histogram summaries (per request type and per
//                 cache outcome) and trace-store counters, answered on
//                 the loop thread so a busy daemon can be polled without
//                 draining
//   ping        — no payload; liveness probe
//   hello       — the handshake: answered with the server's version, role
//                 and drain state. Answered for ANY claimed version, so a
//                 client learns what the server speaks before it commits.
//
// Fleet control plane (the distributed tier of src/dist):
//
//   register    — a worker joins a coordinator: identity + address.
//                 Response carries the current routable peer list.
//   heartbeat   — periodic worker→coordinator liveness + load + cache
//                 stats; `leaving` announces a graceful departure.
//                 Response refreshes the peer list.
//   cache_probe — "do you hold content hash K?" — answered from the local
//                 result cache with the serialized CompileResult on hit.
//                 The peer-lookup half of the distributed cache tier.
//   cache_fill  — push a serialized result under K into the receiver's
//                 cache (replication after a fresh compile).
//   unit_probe  — "do you hold unit-artifact key K?" — answered from the
//                 local unit cache (incr::UnitCache::peek) with the opaque
//                 pass-boundary payload on hit. Lets a late-joining or
//                 resharded worker resume a unit mid-pipeline from a
//                 peer's snapshot instead of recomputing.
//   unit_fill   — push a unit artifact under K (with its boundary label)
//                 into the receiver's unit cache (replication after a
//                 fresh per-unit compute).
//   forward     — a coordinator-wrapped compile/run: same payload fields
//                 plus the wrapped type and the routing attempt counter.
//                 Workers must never re-forward (no routing loops).
//
// Responses carry the echoed id and a status:
//
//   ok                  — per-type payload (result / run / metrics / hello
//                         / peers / probe outcome)
//   error               — request was valid but the work failed
//   overloaded          — bounded admission queue was full (or draining, or
//                         a fleet has no routable workers); the request was
//                         NOT accepted, retry later
//   deadline_exceeded   — accepted, but not finished within the deadline;
//                         the result was discarded
//   unsupported_version — the request's version is not kProtocolVersion.
//                         Structured and non-fatal: the connection stays
//                         open.
//   worker_lost         — fleet only: every routable worker for the shard
//                         failed mid-request (transport errors after
//                         bounded retry/failover); safe to retry
//   protocol_error      — unparseable/oversized frame or undecodable
//                         request; the server closes the connection after
//                         sending it (the stream cannot be resynchronized)
//
// Options encodings are total: every PipelineOptions and InterpOptions
// field is carried, so a compile over the wire is bit-equivalent to an
// in-process run with the same options (tests/net_e2e_test.cpp holds
// this as an invariant; tests/dist_e2e_test.cpp extends it across a
// coordinator hop).
//
// request_to_json/response_to_json render a message as JSON: its
// human-readable form, and the reference the binary codec's round-trip
// tests compare against. They are not a wire format: only the schemaless
// metrics and trace payloads ride inside binary frames as JSON text.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "driver/pipeline.h"
#include "interp/interp.h"
#include "service/cache.h"
#include "support/json.h"

namespace ap::net {

// The one protocol version. A request claiming any other version draws
// `unsupported_version`; `hello` is answered regardless.
inline constexpr int kProtocolVersion = 7;

enum class RequestType : uint8_t {
  Compile,
  Run,
  Metrics,
  Ping,
  Hello,
  Register,
  Heartbeat,
  CacheProbe,
  CacheFill,
  Forward,
  Stats,
  UnitProbe,
  UnitFill,
};
const char* request_type_name(RequestType t);

enum class Status : uint8_t {
  Ok,
  Error,
  Overloaded,
  DeadlineExceeded,
  UnsupportedVersion,
  WorkerLost,
  ProtocolError,
};
const char* status_name(Status s);

// Content-hash keys travel as fixed-width lowercase hex (the same value
// service::cache_key computes; the coordinator shards by it and the cache
// tier probes by it).
std::string format_key(uint64_t key);
bool parse_key(std::string_view hex, uint64_t* out);

// A worker's identity and reachable address (register/heartbeat requests,
// peer lists in their responses).
struct WorkerInfo {
  std::string id;    // stable identity; the rendezvous-hash token
  std::string host;  // peer-reachable address (loopback deployments: 127.0.0.1)
  int port = 0;      // wire-protocol port
};

// A worker's load + cache counters, piggybacked on heartbeats so the
// coordinator's telemetry has a per-worker section without extra RPCs.
struct WorkerLoad {
  int64_t queue_depth = 0;   // admitted, not yet running
  int64_t running = 0;       // jobs currently executing
  uint64_t cache_entries = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t peer_hits = 0;    // misses answered by the peer tier instead
  // This worker's latency-histogram summaries, as the compact
  // obs::encode_histogram_set text ("" = none reported). The coordinator
  // merges these into fleet-wide quantiles.
  std::string hist;
};

// Hello response payload: what the server speaks and what it is.
struct HelloInfo {
  int version = kProtocolVersion;
  std::string role = "single";  // "single" | "coordinator" | "worker"
  bool draining = false;
};

struct Request {
  RequestType type = RequestType::Ping;
  int64_t id = 0;
  // The version the sender claimed. Decoders preserve it so the server
  // can answer a mismatch with `unsupported_version`.
  int version = kProtocolVersion;
  std::string name;         // display label (app name); not semantic
  std::string source;       // F77-subset program text
  std::string annotations;  // annotation DSL text ("" = none)
  driver::PipelineOptions options;
  interp::InterpOptions interp;  // run requests only
  // Per-request deadline override in milliseconds; 0 = use the server's
  // --request-timeout-ms default.
  int64_t deadline_ms = 0;

  // --- fleet fields ---
  WorkerInfo worker;    // register, heartbeat
  WorkerLoad load;      // heartbeat
  bool leaving = false; // heartbeat: graceful departure announcement
  std::string key;      // cache_probe, cache_fill, unit_probe/fill (hex)
  std::string payload;  // cache_fill / unit_fill: serialized payload
  // unit_fill: the snapshotting pass's name — "parallelize", the one
  // boundary — the receiver's stats bucket for the adopted artifact.
  std::string boundary;
  // forward: the wrapped request type (Compile or Run) and the
  // coordinator's 0-based routing attempt for this request.
  RequestType inner = RequestType::Compile;
  int attempt = 0;

  // --- tracing ---
  // Ask every hop to record spans; the response's `trace` carries the
  // assembled tree. The serving core mints `trace_id` at admission when
  // the client left it 0; internal hops (forward/cache_probe/cache_fill)
  // propagate the minted id so fleet-side records correlate.
  bool trace = false;
  uint64_t trace_id = 0;
};

// One interpreter execution, for run responses.
struct RunPayload {
  bool ok = false;
  bool stopped = false;
  std::string stop_message;
  std::string error;
  std::string output;
  uint64_t statements = 0;
  uint64_t statements_parallel = 0;
  uint64_t instructions = 0;
  double wall_ms = 0;
};

struct Response {
  int64_t id = 0;
  Status status = Status::Ok;
  std::string error;  // human-readable reason for non-ok statuses

  bool has_result = false;
  service::CompileResult result;  // compile and run responses

  bool has_run = false;
  RunPayload run;  // run responses

  json::Value metrics;  // metrics and stats responses (object); null otherwise

  // Traced requests: the span tree (obs::span_to_json form) assembled by
  // the answering server; null when the request was not traced.
  json::Value trace;

  // --- fleet fields ---
  bool has_hello = false;
  HelloInfo hello;  // hello responses

  bool found = false;   // cache_probe: the key was held
  std::string payload;  // cache_probe hit: serialized CompileResult

  bool has_peers = false;
  std::vector<WorkerInfo> peers;  // register/heartbeat: routable peers
};

// Payload shape shared by the codec and the renderer: compile and run
// requests (and forwards of them) carry source, annotations, options and
// deadline; run requests (and forwards of them) also carry InterpOptions.
bool carries_compile_payload(const Request& r);
bool carries_interp_options(const Request& r);

// JSON renderings (every field). Not a wire format: see the file comment.
json::Value request_to_json(const Request& r);
json::Value response_to_json(const Response& r);

}  // namespace ap::net
