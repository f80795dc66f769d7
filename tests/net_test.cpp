// Protocol-hardening tests for the serving layer (src/net): wire framing,
// options/message round-trips, and a live in-process server driven through
// hostile inputs — truncated frames, oversized length prefixes, non-binary
// payloads, half-open disconnects, overload, deadlines, drain. The server must
// answer with structured errors, never crash, and never leak an fd.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "incr/unit_cache.h"
#include "net/binproto.h"
#include "net/channel.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "suite/suite.h"
#include "support/tlv.h"
#include "tests/test_util.h"

namespace ap {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST(Framing, EncodeDecodeRoundTrip) {
  std::string frame = net::encode_frame("hello");
  ASSERT_EQ(frame.size(), 9u);
  EXPECT_EQ(frame.substr(4), "hello");
  net::FrameReader r;
  r.feed(frame.data(), frame.size());
  auto payload = r.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "hello");
  EXPECT_FALSE(r.next().has_value());
  EXPECT_EQ(r.buffered(), 0u);
}

TEST(Framing, ByteAtATimeDelivery) {
  std::string frame = net::encode_frame("fragmented payload") +
                      net::encode_frame("second");
  net::FrameReader r;
  std::vector<std::string> got;
  for (char c : frame) {
    r.feed(&c, 1);
    while (auto p = r.next()) got.push_back(*p);
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "fragmented payload");
  EXPECT_EQ(got[1], "second");
}

TEST(Framing, TruncatedFrameIsNotAnError) {
  std::string frame = net::encode_frame("truncated");
  net::FrameReader r;
  r.feed(frame.data(), frame.size() - 3);
  EXPECT_FALSE(r.next().has_value());
  EXPECT_FALSE(r.error());
  r.feed(frame.data() + frame.size() - 3, 3);
  auto payload = r.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "truncated");
}

TEST(Framing, OversizedPrefixIsStickyError) {
  net::FrameReader r(/*max_frame=*/64);
  std::string frame = net::encode_frame(std::string(65, 'x'));
  r.feed(frame.data(), frame.size());
  EXPECT_FALSE(r.next().has_value());
  EXPECT_TRUE(r.error());
  EXPECT_NE(r.error_message().find("exceeds maximum"), std::string::npos);
  // Sticky: later well-formed frames are not resynchronized.
  std::string ok = net::encode_frame("ok");
  r.feed(ok.data(), ok.size());
  EXPECT_FALSE(r.next().has_value());
  EXPECT_TRUE(r.error());
}

TEST(Framing, EmptyPayloadRoundTrips) {
  std::string frame = net::encode_frame("");
  net::FrameReader r;
  r.feed(frame.data(), frame.size());
  auto payload = r.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "");
}

// ---------------------------------------------------------------------------
// Message round-trips
// ---------------------------------------------------------------------------

driver::PipelineOptions nondefault_pipeline_options() {
  driver::PipelineOptions o;
  o.config = driver::InlineConfig::Conventional;
  o.par.min_trip = 7;
  o.par.normalize = false;
  o.par.mark_nested = true;
  o.par.use_banerjee = false;
  o.par.use_siv_refinement = false;
  o.par.collect_all_blockers = true;
  o.conv.max_stmts = 99;
  o.conv.max_callee_calls = 3;
  o.conv.require_in_loop = false;
  o.conv.eliminate_dead_units = false;
  o.conv.max_passes = 5;
  o.annot.require_in_loop = false;
  o.reverse.tolerate_reordering = false;
  o.reverse.tolerate_forward_subst = false;
  o.reverse.tolerate_literals = false;
  o.reverse.fallback_to_hints = false;
  return o;
}

// Encodes a message with the binary codec and decodes it back.
bool round_trip(const net::Request& in, net::Request* out, std::string* err) {
  return net::decode_request_binary(net::encode_request_binary(in), out, err);
}
bool round_trip(const net::Response& in, net::Response* out,
                std::string* err) {
  return net::decode_response_binary(net::encode_response_binary(in), out,
                                     err);
}

TEST(Protocol, RequestRoundTripPreservesEveryField) {
  for (auto type : {net::RequestType::Compile, net::RequestType::Run,
                    net::RequestType::Metrics, net::RequestType::Ping}) {
    net::Request r;
    r.type = type;
    r.id = 42;
    r.name = "APP \"quoted\"";
    r.source = "      PROGRAM X\n      END\n";
    r.annotations = "inline matmlt\n";
    r.options = nondefault_pipeline_options();
    r.interp.num_threads = 3;
    r.interp.enable_parallel = false;
    r.interp.max_steps = 12345;
    r.interp.check_bounds = false;
    r.interp.engine = interp::Engine::Tree;
    r.deadline_ms = 777;

    net::Request back;
    std::string err;
    ASSERT_TRUE(round_trip(r, &back, &err))
        << net::request_type_name(type) << ": " << err;
    EXPECT_EQ(back.type, r.type);
    EXPECT_EQ(back.id, r.id);
    // ping/metrics intentionally carry no payload; the interp encoding
    // rides only on run requests.
    bool has_payload = type == net::RequestType::Compile ||
                       type == net::RequestType::Run;
    if (!has_payload) continue;
    EXPECT_EQ(back.name, r.name);
    EXPECT_EQ(back.source, r.source);
    EXPECT_EQ(back.annotations, r.annotations);
    EXPECT_EQ(back.deadline_ms, r.deadline_ms);
    // The cache key hashes every serialized PipelineOptions field, so
    // equality there is equality everywhere.
    EXPECT_EQ(service::cache_key("", "", back.options),
              service::cache_key("", "", r.options));
    if (type != net::RequestType::Run) continue;
    EXPECT_EQ(back.interp.num_threads, 3);
    EXPECT_FALSE(back.interp.enable_parallel);
    EXPECT_EQ(back.interp.max_steps, 12345);
    EXPECT_FALSE(back.interp.check_bounds);
    EXPECT_EQ(back.interp.engine, interp::Engine::Tree);
  }
}

TEST(Protocol, ResponseRoundTripEveryStatus) {
  for (auto status :
       {net::Status::Ok, net::Status::Error, net::Status::Overloaded,
        net::Status::DeadlineExceeded, net::Status::UnsupportedVersion,
        net::Status::WorkerLost, net::Status::ProtocolError}) {
    net::Response r;
    r.id = 9;
    r.status = status;
    r.error = "reason\nwith newline";
    r.has_result = true;
    r.result.ok = true;
    r.result.cache_hit = true;
    r.result.peer_hit = true;
    r.result.parallel_loops = {3, 17, 42};
    r.result.code_lines = 120;
    r.result.dep_tests = 55;
    r.result.dep_tests_unique = 33;
    r.result.unit_hits = 7;
    r.result.unit_misses = 2;
    r.result.unit_invalidated = 1;
    r.result.program_text = "      PROGRAM X\n      END\n";
    r.has_run = true;
    r.run.ok = true;
    r.run.output = "CHECKSUM 1.5\n";
    r.run.statements = 1000;
    r.run.statements_parallel = 900;
    r.run.instructions = 5000;
    r.run.wall_ms = 1.25;

    net::Response back;
    std::string err;
    ASSERT_TRUE(round_trip(r, &back, &err))
        << net::status_name(status) << ": " << err;
    EXPECT_EQ(back.status, r.status);
    EXPECT_EQ(back.id, r.id);
    EXPECT_EQ(back.error, r.error);
    ASSERT_TRUE(back.has_result);
    EXPECT_EQ(back.result.parallel_loops, r.result.parallel_loops);
    EXPECT_EQ(back.result.code_lines, r.result.code_lines);
    EXPECT_EQ(back.result.dep_tests, r.result.dep_tests);
    EXPECT_EQ(back.result.dep_tests_unique, r.result.dep_tests_unique);
    EXPECT_EQ(back.result.program_text, r.result.program_text);
    EXPECT_TRUE(back.result.cache_hit);
    EXPECT_TRUE(back.result.peer_hit);
    EXPECT_EQ(back.result.unit_hits, 7u);
    EXPECT_EQ(back.result.unit_misses, 2u);
    EXPECT_EQ(back.result.unit_invalidated, 1u);
    ASSERT_TRUE(back.has_run);
    EXPECT_EQ(back.run.output, r.run.output);
    EXPECT_EQ(back.run.statements, r.run.statements);
    EXPECT_EQ(back.run.statements_parallel, r.run.statements_parallel);
    EXPECT_EQ(back.run.instructions, r.run.instructions);
    EXPECT_DOUBLE_EQ(back.run.wall_ms, r.run.wall_ms);
  }
}

TEST(Protocol, FleetMessagesRoundTrip) {
  // register: worker identity survives the wire.
  net::Request reg;
  reg.type = net::RequestType::Register;
  reg.id = 3;
  reg.worker = {"w-42", "127.0.0.1", 9001};
  net::Request back;
  std::string err;
  ASSERT_TRUE(round_trip(reg, &back, &err)) << err;
  EXPECT_EQ(back.type, net::RequestType::Register);
  EXPECT_EQ(back.worker.id, "w-42");
  EXPECT_EQ(back.worker.port, 9001);

  // heartbeat: load report + leaving flag.
  net::Request hb;
  hb.type = net::RequestType::Heartbeat;
  hb.worker = {"w-42", "127.0.0.1", 9001};
  hb.load.queue_depth = 4;
  hb.load.running = 2;
  hb.load.cache_entries = 17;
  hb.load.cache_hits = 10;
  hb.load.cache_misses = 7;
  hb.load.peer_hits = 3;
  hb.leaving = true;
  ASSERT_TRUE(round_trip(hb, &back, &err)) << err;
  EXPECT_EQ(back.load.queue_depth, 4);
  EXPECT_EQ(back.load.running, 2);
  EXPECT_EQ(back.load.cache_entries, 17u);
  EXPECT_EQ(back.load.peer_hits, 3u);
  EXPECT_TRUE(back.leaving);

  // cache_probe / cache_fill: 16-hex key and opaque payload.
  net::Request probe;
  probe.type = net::RequestType::CacheProbe;
  probe.key = net::format_key(0xdeadbeefcafef00dull);
  ASSERT_TRUE(round_trip(probe, &back, &err)) << err;
  uint64_t key = 0;
  ASSERT_TRUE(net::parse_key(back.key, &key));
  EXPECT_EQ(key, 0xdeadbeefcafef00dull);

  net::Request fill;
  fill.type = net::RequestType::CacheFill;
  fill.key = net::format_key(1);
  fill.payload = "opaque\nresult\tbytes";
  ASSERT_TRUE(round_trip(fill, &back, &err)) << err;
  EXPECT_EQ(back.payload, fill.payload);

  // forward: wraps an inner compile and keeps the attempt counter.
  net::Request fwd;
  fwd.type = net::RequestType::Forward;
  fwd.inner = net::RequestType::Compile;
  fwd.attempt = 2;
  fwd.name = "APP";
  fwd.source = "      PROGRAM X\n      END\n";
  ASSERT_TRUE(round_trip(fwd, &back, &err)) << err;
  EXPECT_EQ(back.type, net::RequestType::Forward);
  EXPECT_EQ(back.inner, net::RequestType::Compile);
  EXPECT_EQ(back.attempt, 2);
  EXPECT_EQ(back.source, fwd.source);

  // response: hello block, probe hit payload, and the peer list.
  net::Response resp;
  resp.status = net::Status::Ok;
  resp.has_hello = true;
  resp.hello = {net::kProtocolVersion, "coordinator", true};
  resp.found = true;
  resp.payload = "serialized result";
  resp.has_peers = true;
  resp.peers = {{"a", "127.0.0.1", 1}, {"b", "127.0.0.1", 2}};
  net::Response rback;
  ASSERT_TRUE(round_trip(resp, &rback, &err)) << err;
  ASSERT_TRUE(rback.has_hello);
  EXPECT_EQ(rback.hello.version, net::kProtocolVersion);
  EXPECT_EQ(rback.hello.role, "coordinator");
  EXPECT_TRUE(rback.hello.draining);
  EXPECT_TRUE(rback.found);
  EXPECT_EQ(rback.payload, "serialized result");
  ASSERT_TRUE(rback.has_peers);
  ASSERT_EQ(rback.peers.size(), 2u);
  EXPECT_EQ(rback.peers[1].id, "b");
  EXPECT_EQ(rback.peers[1].port, 2);
}

// An opaque unit payload behind the snapshot record's magic byte and
// version header: the codec carries it byte-exactly, never decoding it.
std::string opaque_unit_payload(std::string_view body) {
  std::string p{static_cast<char>(incr::kSnapshotMagic),
                static_cast<char>(incr::kUnitCacheFormatVersion)};
  p += body;
  return p;
}

// Unit-artifact messages: unit_probe/unit_fill carry the same hex key
// shape as the whole-result tier plus the boundary label, and the payload
// stays byte-exact (it is an opaque pass snapshot).
TEST(Protocol, UnitMessagesRoundTripByteExact) {
  net::Request probe;
  probe.type = net::RequestType::UnitProbe;
  probe.id = 21;
  probe.key = net::format_key(0xfeedface00c0ffeeull);
  net::Request back;
  std::string err;
  ASSERT_TRUE(round_trip(probe, &back, &err)) << err;
  EXPECT_EQ(back.type, net::RequestType::UnitProbe);
  uint64_t key = 0;
  ASSERT_TRUE(net::parse_key(back.key, &key));
  EXPECT_EQ(key, 0xfeedface00c0ffeeull);

  net::Request fill;
  fill.type = net::RequestType::UnitFill;
  fill.key = net::format_key(7);
  fill.boundary = "parallelize";
  fill.payload = opaque_unit_payload(" opaque");
  fill.payload.push_back('\xfe');
  ASSERT_TRUE(round_trip(fill, &back, &err)) << err;
  EXPECT_EQ(back.type, net::RequestType::UnitFill);
  EXPECT_EQ(back.boundary, "parallelize");
  EXPECT_EQ(back.payload, fill.payload);

  // A probe hit response is the same found/payload shape the result tier
  // uses — byte-exact through the codec.
  net::Response resp;
  resp.id = 21;
  resp.found = true;
  resp.payload = fill.payload;
  net::Response rback;
  ASSERT_TRUE(round_trip(resp, &rback, &err)) << err;
  EXPECT_TRUE(rback.found);
  EXPECT_EQ(rback.payload, fill.payload);
  EXPECT_EQ(tlv::to_json(rback).dump(),
            tlv::to_json(resp).dump());
}

TEST(Protocol, BinaryDecoderRejectsMissingFields) {
  net::Request out;
  std::string err;

  // Fleet identity and cache keys are validated at decode time.
  net::Request reg;
  reg.type = net::RequestType::Register;
  EXPECT_FALSE(round_trip(reg, &out, &err));
  EXPECT_NE(err.find("worker id"), std::string::npos) << err;

  net::Request probe;
  probe.type = net::RequestType::CacheProbe;
  probe.key = "not hex";
  EXPECT_FALSE(round_trip(probe, &out, &err));
  EXPECT_NE(err.find("key"), std::string::npos) << err;

  // A forward wraps only compile or run.
  net::Request fwd;
  fwd.type = net::RequestType::Forward;
  fwd.inner = net::RequestType::Ping;
  EXPECT_FALSE(round_trip(fwd, &out, &err));
  EXPECT_NE(err.find("forward"), std::string::npos) << err;

  // The version is not the decoder's to judge: a mismatched claim decodes
  // with the claim preserved, so the server can answer it structurally.
  net::Request ping;
  ping.type = net::RequestType::Ping;
  ping.version = 99;
  ASSERT_TRUE(round_trip(ping, &out, &err)) << err;
  EXPECT_EQ(out.version, 99);
}

// ---------------------------------------------------------------------------
// Live server
// ---------------------------------------------------------------------------

int open_fd_count() {
  int n = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator("/proc/self/fd"))
    ++n;
  return n;
}

// Holds every request named "BLOCKED" inside the server's executor until
// the test releases it, so queueing, deadlines and drain are observed
// without a wall-clock race: the blocked request cannot finish early, and
// the test waits on the gate instead of sleeping.
class Gate {
 public:
  // Called on a worker lane: blocks until release().
  void pass() {
    std::unique_lock<std::mutex> lock(mu_);
    ++entered_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
  }
  // Waits until `n` requests are held (or were held) at the gate.
  bool wait_entered(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(60),
                        [&] { return entered_ >= n; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool open_ = false;
};

// Polls `cond` until it holds; false after a minute. For server state the
// loop thread publishes asynchronously (admission, drain).
template <typename Cond>
bool eventually(Cond cond) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::minutes(1);
  while (!cond()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

suite::BenchmarkApp blocked_app() {
  suite::BenchmarkApp app;
  app.name = "BLOCKED";
  app.source = "      PROGRAM BLOCKED\n      END\n";
  return app;
}

suite::BenchmarkApp quick_app() {
  suite::BenchmarkApp app;
  app.name = "QUICK";
  app.source = "      PROGRAM QUICK\n"
               "      REAL A(10)\n"
               "      INTEGER I\n"
               "      DO 10 I = 1, 10\n"
               "        A(I) = I * 2.0\n"
               "   10 CONTINUE\n"
               "      END\n";
  return app;
}

struct LiveServer {
  service::ResultCache cache{64};
  service::Scheduler scheduler;
  Gate* gate = nullptr;
  net::Server server;

  // With a gate, the server dispatches through ServerOptions::executor:
  // requests named BLOCKED wait at the gate, everything else compiles
  // through the scheduler.
  explicit LiveServer(net::ServerOptions opts = {}, Gate* gate = nullptr)
      : scheduler(make_sched_opts()), gate(gate), server(patch(opts)) {
    std::string err;
    if (!server.start(&err)) ADD_FAILURE() << "server start failed: " << err;
  }

  service::Scheduler::Options make_sched_opts() {
    service::Scheduler::Options so;
    so.threads = 1;
    so.cache = &cache;
    return so;
  }

  net::ServerOptions patch(net::ServerOptions opts) {
    opts.port = 0;
    opts.scheduler = &scheduler;
    if (gate) opts.executor = [this](const net::Request& req,
                                     std::vector<obs::Span>*) {
      return gated_execute(req);
    };
    return opts;
  }

  net::Response gated_execute(const net::Request& req) {
    net::Response resp;
    if (req.name == "BLOCKED") {
      gate->pass();
      return resp;
    }
    service::CompileJob job;
    job.app.name = req.name;
    job.app.source = req.source;
    job.app.annotations = req.annotations;
    job.opts = req.options;
    resp.result = scheduler.run_one(job);
    resp.has_result = true;
    if (!resp.result.ok) resp.status = net::Status::Error;
    return resp;
  }

  ~LiveServer() {
    if (gate) gate->release();  // never drain with a request held
    server.begin_drain();
    server.wait();
  }
};

net::Request compile_request(const suite::BenchmarkApp& app) {
  net::Request req;
  req.type = net::RequestType::Compile;
  req.name = app.name;
  req.source = app.source;
  req.annotations = app.annotations;
  return req;
}

TEST(Server, PingMetricsAndCompile) {
  LiveServer live;
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 30'000)) << err;

  net::Request ping;
  ping.type = net::RequestType::Ping;
  net::Response resp;
  ASSERT_TRUE(client.call(std::move(ping), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::Ok);

  net::Response cresp;
  ASSERT_TRUE(client.call(compile_request(quick_app()), &cresp, &err)) << err;
  EXPECT_EQ(cresp.status, net::Status::Ok);
  ASSERT_TRUE(cresp.has_result);
  EXPECT_TRUE(cresp.result.ok);
  EXPECT_FALSE(cresp.result.cache_hit);
  EXPECT_EQ(cresp.result.parallel_loops.size(), 1u);

  // Identical resubmission is a cache hit.
  ASSERT_TRUE(client.call(compile_request(quick_app()), &cresp, &err)) << err;
  EXPECT_EQ(cresp.status, net::Status::Ok);
  EXPECT_TRUE(cresp.result.cache_hit);

  net::Request metrics;
  metrics.type = net::RequestType::Metrics;
  ASSERT_TRUE(client.call(std::move(metrics), &resp, &err)) << err;
  ASSERT_TRUE(resp.metrics.is_object());
  const json::Value* cache = resp.metrics.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->find("memory_hits")->as_int(), 1);
  const json::Value* server = resp.metrics.find("server");
  ASSERT_NE(server, nullptr);
  EXPECT_GE(server->find("accepted")->as_int(), 2);
}

TEST(Server, NonBinaryFrameDrawsProtocolErrorAndClose) {
  LiveServer live;
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 30'000)) << err;
  // A JSON request, as a client of an older protocol would send it.
  ASSERT_TRUE(client.send_frame(R"({"v": 6, "type": "ping", "id": 1})", &err))
      << err;
  net::Response resp;
  ASSERT_TRUE(client.recv_any(&resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::ProtocolError);
  // The server closes after a protocol error.
  EXPECT_FALSE(client.recv_frame(&err).has_value());
  EXPECT_GE(live.server.stats().protocol_errors, 1u);
}

TEST(Server, OversizedPrefixDrawsProtocolErrorAndClose) {
  net::ServerOptions opts;
  opts.max_frame_bytes = 1024;
  LiveServer live(opts);
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 30'000)) << err;
  // 4-byte prefix announcing 1 GiB; no payload needed to trip the limit.
  std::string prefix = {0x40, 0x00, 0x00, 0x00};
  ASSERT_TRUE(client.send_raw(prefix, &err)) << err;
  net::Response resp;
  ASSERT_TRUE(client.recv_any(&resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::ProtocolError);
  EXPECT_FALSE(client.recv_frame(&err).has_value());
}

TEST(Server, WellFormedFrameBadRequestDrawsProtocolError) {
  LiveServer live;
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 30'000)) << err;
  // Well-framed and well-encoded, but a register without a worker id.
  net::Request reg;
  reg.type = net::RequestType::Register;
  net::Response resp;
  ASSERT_TRUE(client.call(std::move(reg), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::ProtocolError);
}

TEST(Server, HalfOpenDisconnectMidRequestLeaksNoFd) {
  LiveServer live;
  int fds_before = open_fd_count();
  for (int round = 0; round < 3; ++round) {
    net::Client client;
    std::string err;
    ASSERT_TRUE(client.connect(live.server.port(), &err, 30'000)) << err;
    // Half a frame: a correct prefix announcing more bytes than we send.
    std::string frame = net::encode_frame(
        net::encode_request_binary(compile_request(quick_app())));
    ASSERT_TRUE(client.send_raw(
        std::string_view(frame).substr(0, frame.size() / 2), &err));
    client.close();  // disconnect mid-request
  }
  // The loop accepts each connection, reads half a frame, sees EOF and
  // closes. Wait for all three accepts first: before them the count can
  // read low only because no server-side descriptor exists yet.
  ASSERT_TRUE(eventually([&] { return live.server.stats().connections >= 3; }));
  EXPECT_TRUE(eventually([&] { return open_fd_count() <= fds_before; }))
      << open_fd_count() << " descriptors open, " << fds_before << " before";

  // The server remains fully usable.
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 30'000)) << err;
  net::Response resp;
  ASSERT_TRUE(client.call(compile_request(quick_app()), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::Ok);
}

TEST(Server, OverloadDrawsStructuredRejection) {
  net::ServerOptions opts;
  opts.threads = 1;
  opts.max_queue = 1;
  opts.request_timeout_ms = 0;  // no deadlines in this test
  Gate gate;
  LiveServer live(opts, &gate);

  // Hold the single worker at the gate, then fill the queue.
  net::Client blocker;
  std::string err;
  ASSERT_TRUE(blocker.connect(live.server.port(), &err, 60'000)) << err;
  ASSERT_TRUE(blocker.submit(compile_request(blocked_app()), nullptr, &err))
      << err;
  ASSERT_TRUE(gate.wait_entered(1));

  net::Client filler;
  ASSERT_TRUE(filler.connect(live.server.port(), &err, 60'000)) << err;
  ASSERT_TRUE(filler.submit(compile_request(quick_app()), nullptr, &err));
  ASSERT_TRUE(eventually([&] { return live.server.stats().accepted >= 2; }));

  // Queue now holds one request; the next must be rejected immediately.
  net::Client rejected;
  ASSERT_TRUE(rejected.connect(live.server.port(), &err, 60'000)) << err;
  net::Response resp;
  ASSERT_TRUE(rejected.call(compile_request(quick_app()), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::Overloaded);
  EXPECT_GE(live.server.stats().rejected_overload, 1u);

  // The accepted requests are still answered — never dropped.
  gate.release();
  auto blocked_payload = blocker.recv_frame(&err);
  ASSERT_TRUE(blocked_payload.has_value()) << err;
  auto filled_payload = filler.recv_frame(&err);
  ASSERT_TRUE(filled_payload.has_value()) << err;
}

TEST(Server, DeadlineExceededWhileRunning) {
  net::ServerOptions opts;
  opts.threads = 1;
  Gate gate;
  LiveServer live(opts, &gate);
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 60'000)) << err;
  net::Request req = compile_request(blocked_app());
  req.deadline_ms = 100;  // the gate holds the request until released
  net::Response resp;
  ASSERT_TRUE(client.call(std::move(req), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::DeadlineExceeded);
  EXPECT_GE(live.server.stats().timed_out, 1u);

  // The worker finishes the abandoned job once released, and the server
  // stays healthy for new work on the same connection.
  gate.release();
  net::Response ok;
  ASSERT_TRUE(client.call(compile_request(quick_app()), &ok, &err)) << err;
  EXPECT_EQ(ok.status, net::Status::Ok);
}

TEST(Server, DrainRejectsNewWorkAndFinishesAccepted) {
  net::ServerOptions opts;
  opts.threads = 1;
  opts.request_timeout_ms = 0;
  Gate gate;
  LiveServer live(opts, &gate);
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 60'000)) << err;
  // An in-flight request held at the gate...
  ASSERT_TRUE(client.submit(compile_request(blocked_app()), nullptr, &err))
      << err;
  ASSERT_TRUE(gate.wait_entered(1));
  // ...then drain. The accepted request must still be answered.
  live.server.begin_drain();
  ASSERT_TRUE(eventually([&] { return live.server.draining(); }));

  gate.release();
  net::Response resp;
  ASSERT_TRUE(client.recv_any(&resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::Ok);

  live.server.wait();
  service::ServerStats stats = live.server.stats();
  EXPECT_EQ(stats.accepted, stats.completed + stats.timed_out);
}

TEST(Server, HelloAnswersVersionNegotiation) {
  LiveServer live;
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 30'000)) << err;
  net::HelloInfo info;
  ASSERT_TRUE(client.negotiate(&err, &info)) << err;
  EXPECT_EQ(info.version, net::kProtocolVersion);
  EXPECT_EQ(info.role, "single");
  EXPECT_FALSE(info.draining);

  // hello is answered even for a version we do not speak: that is how a
  // client learns what the server speaks.
  net::Request hello;
  hello.type = net::RequestType::Hello;
  hello.id = 7;
  hello.version = 999;
  net::Response resp;
  ASSERT_TRUE(client.call(std::move(hello), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::Ok);
  EXPECT_EQ(resp.id, 7);
  ASSERT_TRUE(resp.has_hello);
  EXPECT_EQ(resp.hello.version, net::kProtocolVersion);
}

TEST(Server, UnsupportedVersionIsStructuredAndNonFatal) {
  LiveServer live;
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 30'000)) << err;

  // A request claiming an older version draws unsupported_version (not
  // protocol_error), naming `hello`, and the connection survives.
  net::Request ping;
  ping.type = net::RequestType::Ping;
  ping.version = net::kProtocolVersion - 1;
  net::Response resp;
  ASSERT_TRUE(client.call(std::move(ping), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::UnsupportedVersion);
  EXPECT_NE(resp.error.find("hello"), std::string::npos);

  // Same connection, the current version: served normally.
  net::Request again;
  again.type = net::RequestType::Ping;
  ASSERT_TRUE(client.call(std::move(again), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::Ok);

  // Fleet message types are gated the same way.
  net::Request probe;
  probe.type = net::RequestType::CacheProbe;
  probe.id = 2;
  probe.version = 1;
  probe.key = net::format_key(1);
  ASSERT_TRUE(client.call(std::move(probe), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::UnsupportedVersion);
  EXPECT_EQ(live.server.stats().protocol_errors, 0u);
}

// unit_probe/unit_fill are version-gated at the server front door, and on
// a non-fleet server a correctly-versioned probe draws a structured error
// (not a crash, not a protocol error) — the connection survives both.
TEST(Server, UnitProbeIsVersionGatedAndStructuredWithoutFleet) {
  LiveServer live;
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 30'000)) << err;

  // A probe claiming an older version: unsupported_version, connection
  // stays.
  net::Request stale;
  stale.type = net::RequestType::UnitProbe;
  stale.id = 4;
  stale.version = 5;
  stale.key = net::format_key(0xaa);
  net::Response resp;
  ASSERT_TRUE(client.call(std::move(stale), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::UnsupportedVersion);
  EXPECT_EQ(resp.id, 4);

  // Current-version probe against a single (non-fleet) server: a
  // structured error.
  net::Request probe;
  probe.type = net::RequestType::UnitProbe;
  probe.key = net::format_key(0xaa);
  ASSERT_TRUE(client.call(std::move(probe), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::Error);
  EXPECT_NE(resp.error.find("not a fleet endpoint"), std::string::npos);
  EXPECT_EQ(live.server.stats().protocol_errors, 0u);

  // The connection is still good for real work.
  net::Response ok;
  ASSERT_TRUE(client.call(compile_request(quick_app()), &ok, &err)) << err;
  EXPECT_EQ(ok.status, net::Status::Ok);
}

TEST(Server, IdleConnectionsAreReaped) {
  net::ServerOptions opts;
  opts.idle_timeout_ms = 250;
  LiveServer live(opts);
  std::string err;

  // One connection goes silent; another stays active past the idle
  // deadline. Only the silent one may be reaped.
  net::Client idle;
  ASSERT_TRUE(idle.connect(live.server.port(), &err, 30'000)) << err;
  net::Client active;
  ASSERT_TRUE(active.connect(live.server.port(), &err, 30'000)) << err;

  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(5'000);
  bool idle_was_closed = false;
  while (std::chrono::steady_clock::now() < deadline) {
    net::Request ping;
    ping.type = net::RequestType::Ping;
    net::Response resp;
    ASSERT_TRUE(active.call(std::move(ping), &resp, &err)) << err;
    ASSERT_EQ(resp.status, net::Status::Ok);
    if (live.server.stats().idle_closed >= 1) {
      idle_was_closed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(idle_was_closed) << "idle connection was never reaped";

  // The reaped socket is really closed: the read side reports EOF.
  std::string read_err;
  EXPECT_FALSE(idle.recv_frame(&read_err).has_value());

  // The active connection kept its session the whole time.
  net::Request ping;
  ping.type = net::RequestType::Ping;
  net::Response resp;
  ASSERT_TRUE(active.call(std::move(ping), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::Ok);
}

// ---------------------------------------------------------------------------
// Binary codec: equivalence against the JSON rendering, hostile frames
// ---------------------------------------------------------------------------

// A request of the given type with every type-relevant field populated
// with non-default values — so a codec that drops a field cannot pass.
net::Request rich_request(net::RequestType type) {
  net::Request r;
  r.type = type;
  r.id = 7741;
  switch (type) {
    case net::RequestType::Metrics:
    case net::RequestType::Ping:
    case net::RequestType::Hello:
    case net::RequestType::Stats:
      break;
    case net::RequestType::Compile:
    case net::RequestType::Run:
    case net::RequestType::Forward:
      r.name = "APP \"quoted\" \xc3\xa9";
      r.source = "      PROGRAM X\n      END\n";
      r.annotations = "inline matmlt\n";
      r.options = nondefault_pipeline_options();
      r.deadline_ms = 777;
      if (type != net::RequestType::Compile) {
        r.interp.num_threads = 3;
        r.interp.enable_parallel = false;
        r.interp.max_steps = 1234567;
        r.interp.check_bounds = false;
        r.interp.engine = interp::Engine::Tree;
      }
      if (type == net::RequestType::Forward) {
        r.inner = net::RequestType::Run;
        r.attempt = 2;
      }
      break;
    case net::RequestType::Register:
      r.worker = {"w-42", "10.1.2.3", 9001};
      break;
    case net::RequestType::Heartbeat:
      r.worker = {"w-42", "10.1.2.3", 9001};
      r.load = {4, 2, 17, 10, 7, 3, ""};
      r.leaving = true;
      break;
    case net::RequestType::CacheProbe:
      r.key = net::format_key(0xdeadbeefcafef00dull);
      break;
    case net::RequestType::CacheFill:
      r.key = net::format_key(0x0123456789abcdefull);
      r.payload = "opaque\nresult\tbytes ";
      r.payload.push_back('\xff');  // opaque payloads are byte-exact
      r.payload += " included";
      break;
    case net::RequestType::UnitProbe:
      r.key = net::format_key(0xfeedface00c0ffeeull);
      break;
    case net::RequestType::UnitFill:
      r.key = net::format_key(0xfeedface00c0ffeeull);
      r.boundary = "parallelize";
      r.payload = opaque_unit_payload("\nopaque ");
      r.payload.push_back('\0');  // unit payloads are byte-exact too
      r.payload += "bytes";
      break;
  }
  return r;
}

constexpr net::RequestType kAllRequestTypes[] = {
    net::RequestType::Compile,    net::RequestType::Run,
    net::RequestType::Metrics,    net::RequestType::Ping,
    net::RequestType::Hello,      net::RequestType::Register,
    net::RequestType::Heartbeat,  net::RequestType::CacheProbe,
    net::RequestType::CacheFill,  net::RequestType::Forward,
    net::RequestType::Stats,      net::RequestType::UnitProbe,
    net::RequestType::UnitFill};

TEST(Binary, RequestRoundTripMatchesJsonForEveryType) {
  for (auto type : kAllRequestTypes) {
    net::Request r = rich_request(type);
    std::string bin = net::encode_request_binary(r);
    net::Request back;
    std::string err;
    ASSERT_TRUE(net::decode_request_binary(bin, &back, &err))
        << net::request_type_name(type) << ": " << err;
    // The equivalence contract: the binary codec is a pure transport
    // encoding, so the JSON rendering of the round-tripped request is
    // byte-identical to the original's.
    EXPECT_EQ(tlv::to_json(back).dump(), tlv::to_json(r).dump())
        << net::request_type_name(type);
  }

  // Forward wrapping a compile (no interp options on the wire).
  net::Request fwd = rich_request(net::RequestType::Forward);
  fwd.inner = net::RequestType::Compile;
  fwd.attempt = 1;
  net::Request back;
  std::string err;
  ASSERT_TRUE(round_trip(fwd, &back, &err)) << err;
  EXPECT_EQ(tlv::to_json(back).dump(), tlv::to_json(fwd).dump());
}

// One response of every shape: each status, compile + run payloads,
// hello + peers + probe hit, and a metrics object.
std::vector<net::Response> response_shapes() {
  std::vector<net::Response> shapes;

  // Every status with an error string.
  for (auto status :
       {net::Status::Ok, net::Status::Error, net::Status::Overloaded,
        net::Status::DeadlineExceeded, net::Status::UnsupportedVersion,
        net::Status::WorkerLost, net::Status::ProtocolError}) {
    net::Response r;
    r.id = 9;
    r.status = status;
    r.error = "reason\nwith newline";
    shapes.push_back(std::move(r));
  }

  // Compile + run payloads, timing records included.
  {
    net::Response r;
    r.id = 10;
    r.has_result = true;
    r.result.ok = true;
    r.result.parallel_loops = {3, 17, 42};
    r.result.code_lines = 120;
    r.result.dep_tests = 55;
    r.result.dep_tests_unique = 33;
    r.result.peer_hit = true;
    r.result.unit_hits = 7;
    r.result.unit_misses = 2;
    r.result.unit_invalidated = 1;
    r.result.program_text = "      PROGRAM X\n      END\n";
    r.result.print_dump = "after pass dump";
    r.result.stopped_early = true;
    r.result.timings.total_ms = 12.5;
    r.result.timings.passes = {{"parse", 1.5, 0, 2}, {"parallelize", 9.25, 4, 0}};
    r.has_run = true;
    r.run.ok = true;
    r.run.stopped = true;
    r.run.stop_message = "STOP 7";
    r.run.output = "CHECKSUM 1.5\n";
    r.run.statements = 1000;
    r.run.statements_parallel = 900;
    r.run.instructions = 5000;
    r.run.wall_ms = 1.25;
    shapes.push_back(std::move(r));
  }

  // Hello + peers + probe hit.
  {
    net::Response r;
    r.id = 11;
    r.has_hello = true;
    r.hello = {net::kProtocolVersion, "coordinator", true};
    r.found = true;
    r.payload = "serialized result";
    r.has_peers = true;
    r.peers = {{"a", "10.0.0.1", 1}, {"b", "10.0.0.2", 2}};
    shapes.push_back(std::move(r));
  }

  // Metrics object (carried as embedded JSON).
  {
    net::Response r;
    r.id = 12;
    json::Value m = json::Value::object();
    m.set("depth", static_cast<int64_t>(3)).set("label", std::string("x"));
    r.metrics = std::move(m);
    shapes.push_back(std::move(r));
  }

  return shapes;
}

TEST(Binary, ResponseRoundTripMatchesJsonForEveryShape) {
  std::vector<net::Response> shapes = response_shapes();
  for (size_t i = 0; i < shapes.size(); ++i) {
    std::string bin = net::encode_response_binary(shapes[i]);
    net::Response back;
    std::string err;
    ASSERT_TRUE(net::decode_response_binary(bin, &back, &err))
        << "shape " << i << ": " << err;
    EXPECT_EQ(tlv::to_json(back).dump(),
              tlv::to_json(shapes[i]).dump())
        << "shape " << i;
  }
}

TEST(Binary, TruncatedAndMutatedPayloadsNeverCrashTheDecoder) {
  // Every request type and every response shape, encoded.
  std::vector<std::string> requests, responses;
  for (auto type : kAllRequestTypes)
    requests.push_back(net::encode_request_binary(rich_request(type)));
  for (const auto& r : response_shapes())
    responses.push_back(net::encode_response_binary(r));

  // Decodes `bin` as a request or a response; a decoded message is
  // rendered, so "decodable" always implies "renderable". A hostile input
  // must fail with a reason or decode.
  auto decoder = [](bool is_request, const std::string& label) {
    return [is_request, label](const std::string& bin) {
      std::string err;
      bool ok;
      if (is_request) {
        net::Request out;
        ok = net::decode_request_binary(bin, &out, &err);
        if (ok) (void)tlv::to_json(out).dump();
      } else {
        net::Response out;
        ok = net::decode_response_binary(bin, &out, &err);
        if (ok) (void)tlv::to_json(out).dump();
      }
      if (!ok) {
        EXPECT_FALSE(err.empty()) << label << ": no reason given";
      }
      return ok;
    };
  };

  std::mt19937 rng(20110913);  // fixed seed: the same mutants every run
  for (bool is_request : {true, false}) {
    const auto& inputs = is_request ? requests : responses;
    for (size_t n = 0; n < inputs.size(); ++n) {
      std::string label =
          std::string(is_request ? "request " : "response ") +
          std::to_string(n);
      test::expect_mutants_fail_cleanly(inputs[n], rng, label,
                                        decoder(is_request, label));
    }
  }

  // A request payload is not a response, nor the reverse (kind byte).
  net::Response resp;
  net::Request req;
  std::string err;
  EXPECT_FALSE(net::decode_response_binary(requests[0], &resp, &err));
  EXPECT_FALSE(net::decode_request_binary(responses[0], &req, &err));
}

// A condition in a field list gates encoding only: the decoder takes any
// field of its message, in any order. An unknown tag is refused.
TEST(Binary, DecoderAcceptsFieldsInAnyOrderAndRefusesUnknownTags) {
  auto frame = [](auto body) {
    std::string out;
    tlv::Writer w(&out);
    w.u8(0xB4);
    w.u8(0x01);  // request kind
    body(w);
    return out;
  };
  std::string ping = frame([](tlv::Writer& w) {
    w.u8(4);  // name: not a ping field, and ahead of the type
    w.str("late");
    w.u8(2);  // id
    w.svarint(5);
    w.u8(1);  // type
    w.u8(static_cast<unsigned char>(net::RequestType::Ping));
    w.u8(tlv::kEnd);
  });
  net::Request back;
  std::string err;
  ASSERT_TRUE(net::decode_request_binary(ping, &back, &err)) << err;
  EXPECT_EQ(back.type, net::RequestType::Ping);
  EXPECT_EQ(back.id, 5);
  EXPECT_EQ(back.name, "late");

  std::string unknown = frame([](tlv::Writer& w) {
    w.u8(17);  // no request field has tag 17
    w.u8(1);
    w.u8(tlv::kEnd);
  });
  EXPECT_FALSE(net::decode_request_binary(unknown, &back, &err));
  EXPECT_NE(err.find("unknown tag"), std::string::npos) << err;
}

// Every field list names each tag and each rendered key once: a repeated
// tag would hide the second field from the decoder, a repeated key from
// the rendering.
struct TagAudit {
  std::set<int> tags;
  std::set<std::string> names;
  bool repeated = false;
  bool when(bool) const { return true; }
  template <class T>
  void field(unsigned char tag, const char* name, T&) {
    note(tag, name);
  }
  template <class E>
  void field(unsigned char tag, const char* name, E&, E) {
    note(tag, name);
  }
  template <class T>
  void optional(unsigned char tag, const char* name, bool&, T&) {
    note(tag, name);
  }
  void note(unsigned char tag, const char* name) {
    EXPECT_NE(tag, tlv::kEnd) << name;
    repeated |= !tags.insert(tag).second || !names.insert(name).second;
  }
};

template <class... Records>
void expect_unique_tags() {
  auto audit = [](auto rec, const char* what) {
    TagAudit a;
    fields(a, rec);
    EXPECT_FALSE(a.repeated) << what;
    EXPECT_FALSE(a.tags.empty()) << what;
  };
  (audit(Records{}, typeid(Records).name()), ...);
}

TEST(Binary, FieldListsUseEachTagAndNameOnce) {
  expect_unique_tags<net::Request, net::Response, net::WorkerInfo,
                     net::WorkerLoad, net::HelloInfo, net::RunPayload,
                     service::CompileResult, pm::PassRecord,
                     driver::PipelineOptions, interp::InterpOptions,
                     incr::UnitSnapshot, incr::OmpMark, fir::OmpInfo,
                     fir::OmpInfo::Reduction, par::ParallelizeResult,
                     par::LoopVerdict, par::Blocker>();
}

TEST(Server, BinaryGarbageDrawsProtocolErrorAndClose) {
  LiveServer live;
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 30'000)) << err;

  // Magic byte followed by garbage: an undecodable binary frame.
  std::string garbage = "\xb4\x01 not a tlv stream at all";
  ASSERT_TRUE(client.send_frame(garbage, &err)) << err;
  net::Response resp;
  ASSERT_TRUE(client.recv_any(&resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::ProtocolError);

  // The stream cannot be resynchronized: the server closes.
  EXPECT_FALSE(client.recv_frame(&err).has_value());
  EXPECT_GE(live.server.stats().protocol_errors, 1u);
}

TEST(Server, NegotiateHandshakeThenServes) {
  LiveServer live;
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 30'000)) << err;

  net::HelloInfo info;
  ASSERT_TRUE(client.negotiate(&err, &info)) << err;
  EXPECT_EQ(info.version, net::kProtocolVersion);

  // Compile, then the warm hit — both full round trips.
  net::Response resp;
  ASSERT_TRUE(client.call(compile_request(quick_app()), &resp, &err)) << err;
  ASSERT_EQ(resp.status, net::Status::Ok) << resp.error;
  ASSERT_TRUE(resp.has_result);
  EXPECT_TRUE(resp.result.ok);
  ASSERT_TRUE(client.call(compile_request(quick_app()), &resp, &err)) << err;
  EXPECT_TRUE(resp.result.cache_hit);
  EXPECT_EQ(live.server.stats().protocol_errors, 0u);
}

TEST(Server, BinaryUnsupportedVersionIsStructuredAndNonFatal) {
  LiveServer live;
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 30'000)) << err;

  // A frame claiming v99 decodes fine; the mismatched claim is answered
  // structurally, with the connection left open.
  net::Request ping;
  ping.type = net::RequestType::Ping;
  ping.id = 5;
  ping.version = 99;
  net::Response resp;
  ASSERT_TRUE(client.call(std::move(ping), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::UnsupportedVersion);
  EXPECT_EQ(resp.id, 5);

  // Same connection still serves a well-versioned request.
  net::Request again;
  again.type = net::RequestType::Ping;
  ASSERT_TRUE(client.call(std::move(again), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::Ok);
  EXPECT_EQ(live.server.stats().protocol_errors, 0u);
}

TEST(Server, PipelinedResponsesReturnOutOfOrder) {
  net::ServerOptions opts;
  opts.threads = 2;  // both requests must run concurrently
  Gate gate;
  LiveServer live(opts, &gate);
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 120'000)) << err;
  ASSERT_TRUE(client.negotiate(&err)) << err;

  // Submit a request the gate holds, then a quick compile, without
  // reading in between. The quick one's response overtakes on the shared
  // connection; the held one is released only after it arrived.
  int64_t slow_id = 0, quick_id = 0;
  ASSERT_TRUE(client.submit(compile_request(blocked_app()), &slow_id, &err))
      << err;
  ASSERT_TRUE(client.submit(compile_request(quick_app()), &quick_id, &err))
      << err;
  ASSERT_NE(slow_id, quick_id);

  net::Response first, second;
  ASSERT_TRUE(client.recv_any(&first, &err)) << err;
  gate.release();
  ASSERT_TRUE(client.recv_any(&second, &err)) << err;
  EXPECT_EQ(first.id, quick_id);
  EXPECT_EQ(second.id, slow_id);
  EXPECT_EQ(first.status, net::Status::Ok) << first.error;
  EXPECT_EQ(second.status, net::Status::Ok) << second.error;

  EXPECT_GE(live.server.stats().pipeline_depth_peak, 2);
}

TEST(Channel, ConcurrentCallsMultiplexOneConnection) {
  LiveServer live;
  net::ChannelOptions co;
  co.port = live.server.port();
  co.recv_timeout_ms = 120'000;
  net::Channel ch(co);

  constexpr int kThreads = 8, kCallsPerThread = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        net::Request ping;
        ping.type = net::RequestType::Ping;
        net::Response resp;
        std::string err;
        if (!ch.call(std::move(ping), &resp, &err) ||
            resp.status != net::Status::Ok)
          failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Every call shared ONE negotiated connection.
  EXPECT_EQ(ch.connects(), 1u);
  EXPECT_EQ(ch.reconnects(), 0u);
  EXPECT_GE(ch.inflight_peak(), 1u);
  // The server saw exactly one transport connection too.
  EXPECT_EQ(live.server.stats().connections, 1u);

  // After a reset the next call redials transparently.
  ch.reset();
  net::Request ping;
  ping.type = net::RequestType::Ping;
  net::Response resp;
  std::string err;
  ASSERT_TRUE(ch.call(std::move(ping), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::Ok);
  EXPECT_EQ(ch.connects(), 2u);
  EXPECT_EQ(ch.reconnects(), 1u);
}

// ---------------------------------------------------------------------------
// Observability plane
// ---------------------------------------------------------------------------

TEST(Protocol, TraceAndStatsFieldsRoundTripAndRender) {
  std::string err;
  net::Request back;

  // Trace flag + minted id on a compile, through the codec and rendered.
  net::Request traced = rich_request(net::RequestType::Compile);
  traced.trace = true;
  traced.trace_id = 0xfeedfacecafebeefull;
  ASSERT_TRUE(round_trip(traced, &back, &err)) << err;
  EXPECT_TRUE(back.trace);
  EXPECT_EQ(back.trace_id, traced.trace_id);
  EXPECT_EQ(tlv::to_json(back).dump(),
            tlv::to_json(traced).dump());

  // The trace id alone rides control-plane hops (peer probes/fills).
  net::Request probe = rich_request(net::RequestType::CacheProbe);
  probe.trace_id = 42;
  ASSERT_TRUE(round_trip(probe, &back, &err)) << err;
  EXPECT_EQ(back.trace_id, 42u);
  EXPECT_FALSE(back.trace);

  // Heartbeats carry the encoded histogram bundle byte-exactly.
  net::Request hb = rich_request(net::RequestType::Heartbeat);
  hb.load.hist = "compile=3;4000;96:3|cache:hit=1;5;5:1";
  ASSERT_TRUE(round_trip(hb, &back, &err)) << err;
  EXPECT_EQ(back.load.hist, hb.load.hist);
  EXPECT_EQ(tlv::to_json(back).dump(), tlv::to_json(hb).dump());

  // The stats type round-trips.
  net::Request stats;
  stats.type = net::RequestType::Stats;
  ASSERT_TRUE(round_trip(stats, &back, &err)) << err;
  EXPECT_EQ(back.type, net::RequestType::Stats);

  // A response span tree survives the codec.
  net::Response resp;
  resp.id = 7;
  obs::Span root{"request", "compile", 4.0, {{"queue", "", 0.5, {}}}};
  resp.trace = obs::span_to_json(root);
  net::Response rback;
  ASSERT_TRUE(round_trip(resp, &rback, &err)) << err;
  obs::Span got;
  ASSERT_TRUE(obs::span_from_json(rback.trace, &got));
  EXPECT_EQ(got.name, "request");
  ASSERT_EQ(got.children.size(), 1u);
  EXPECT_EQ(got.children[0].name, "queue");
  EXPECT_EQ(tlv::to_json(rback).dump(),
            tlv::to_json(resp).dump());

  // An untraced response renders no trace member at all.
  net::Response plain;
  plain.id = 8;
  EXPECT_EQ(tlv::to_json(plain).find("trace"), nullptr);
}

TEST(Server, StatsUnderOldVersionDrawsUnsupportedVersion) {
  LiveServer live;
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 30'000)) << err;

  // A stats poll claiming an older version: a version problem, not a
  // protocol error, and the connection survives.
  net::Request req;
  req.type = net::RequestType::Stats;
  req.id = 31;
  req.version = 4;
  net::Response resp;
  ASSERT_TRUE(client.call(std::move(req), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::UnsupportedVersion);
  EXPECT_EQ(resp.id, 31);

  net::Request ping;
  ping.type = net::RequestType::Ping;
  ASSERT_TRUE(client.call(std::move(ping), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::Ok);
  EXPECT_EQ(live.server.stats().protocol_errors, 0u);
}

TEST(Server, StatsAnswersLiveHistograms) {
  LiveServer live;
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 30'000)) << err;

  // Some traffic so the histograms are populated: a cold compile (miss)
  // and a warm one (memory hit).
  net::Response cresp;
  ASSERT_TRUE(client.call(compile_request(quick_app()), &cresp, &err)) << err;
  ASSERT_EQ(cresp.status, net::Status::Ok) << cresp.error;
  ASSERT_TRUE(client.call(compile_request(quick_app()), &cresp, &err)) << err;
  ASSERT_EQ(cresp.status, net::Status::Ok) << cresp.error;
  EXPECT_TRUE(cresp.result.cache_hit);

  net::Request stats;
  stats.type = net::RequestType::Stats;
  net::Response resp;
  ASSERT_TRUE(client.call(std::move(stats), &resp, &err)) << err;
  ASSERT_EQ(resp.status, net::Status::Ok) << resp.error;
  ASSERT_TRUE(resp.metrics.is_object());

  const json::Value* hist = resp.metrics.find("hist");
  ASSERT_NE(hist, nullptr);
  const json::Value* compile = hist->find("compile");
  ASSERT_NE(compile, nullptr);
  EXPECT_EQ(compile->find("count")->as_int(0), 2);
  EXPECT_GE(compile->find("p50_ms")->as_double(-1), 0.0);
  EXPECT_GE(compile->find("p99_ms")->as_double(-1),
            compile->find("p50_ms")->as_double(-1));
  // One cold miss, one memory hit — each in its outcome family.
  ASSERT_NE(hist->find("cache:miss"), nullptr);
  EXPECT_EQ(hist->find("cache:miss")->find("count")->as_int(0), 1);
  ASSERT_NE(hist->find("cache:memory_hit"), nullptr);
  EXPECT_EQ(hist->find("cache:memory_hit")->find("count")->as_int(0), 1);

  // The flight recorder saw the compiles; no traces were requested.
  const json::Value* flight = resp.metrics.find("flight");
  ASSERT_NE(flight, nullptr);
  EXPECT_GE(flight->find("recorded")->as_int(0), 2);
  const json::Value* traces = resp.metrics.find("traces");
  ASSERT_NE(traces, nullptr);
  EXPECT_EQ(traces->find("recorded")->as_int(-1), 0);

  // And the regular metrics sections ride along (server block included).
  ASSERT_NE(resp.metrics.find("server"), nullptr);

  // The histograms match what the server reports for heartbeats: the
  // encoded set decodes back to the same counts.
  auto snaps = live.server.histogram_snapshots();
  std::vector<std::pair<std::string, obs::HistogramSnapshot>> decoded;
  ASSERT_TRUE(obs::decode_histogram_set(obs::encode_histogram_set(snaps),
                                        &decoded));
  bool saw_compile = false;
  for (const auto& [name, snap] : decoded)
    if (name == "compile") {
      saw_compile = true;
      EXPECT_EQ(snap.count, 2u);
    }
  EXPECT_TRUE(saw_compile);
}

TEST(Server, TracedCompileReturnsWellFormedSpanTree) {
  LiveServer live;
  net::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(live.server.port(), &err, 30'000)) << err;

  // Cold traced compile: the worker path roots queue + cache + compile
  // spans under one "request" span.
  net::Request req = compile_request(quick_app());
  req.trace = true;
  net::Response resp;
  ASSERT_TRUE(client.call(std::move(req), &resp, &err)) << err;
  ASSERT_EQ(resp.status, net::Status::Ok) << resp.error;
  ASSERT_TRUE(resp.trace.is_object()) << "traced compile returned no tree";
  obs::Span root;
  ASSERT_TRUE(obs::span_from_json(resp.trace, &root));
  EXPECT_EQ(root.name, "request");
  EXPECT_EQ(obs::span_tree_violations(root), 0u);
  ASSERT_GE(root.children.size(), 2u);
  EXPECT_EQ(root.children[0].name, "queue");
  bool saw_compile_span = false;
  double child_sum = 0;
  for (const auto& c : root.children) {
    child_sum += c.wall_ms;
    if (c.name == "compile") {
      saw_compile_span = true;
      // Per-pass spans ride under the compile span.
      EXPECT_GE(c.children.size(), 1u);
      for (const auto& p : c.children)
        EXPECT_EQ(p.name.rfind("pass:", 0), 0u) << p.name;
    }
  }
  EXPECT_TRUE(saw_compile_span);
  // The acceptance invariant: root wall covers the sum of child spans.
  EXPECT_GE(root.wall_ms + 0.5, child_sum);

  // Warm traced compile: the fast path still answers with a tree.
  net::Request warm = compile_request(quick_app());
  warm.trace = true;
  ASSERT_TRUE(client.call(std::move(warm), &resp, &err)) << err;
  ASSERT_EQ(resp.status, net::Status::Ok) << resp.error;
  ASSERT_TRUE(resp.trace.is_object());
  obs::Span fast;
  ASSERT_TRUE(obs::span_from_json(resp.trace, &fast));
  EXPECT_EQ(obs::span_tree_violations(fast), 0u);
  ASSERT_EQ(fast.children.size(), 1u);
  EXPECT_EQ(fast.children[0].name, "cache");
  EXPECT_EQ(fast.children[0].detail, "memory_hit");

  // Both trees were sampled server-side, retrievable by trace id.
  EXPECT_EQ(live.server.traces().recorded(), 2u);

  // An untraced request draws no tree.
  net::Response plain;
  ASSERT_TRUE(client.call(compile_request(quick_app()), &plain, &err)) << err;
  EXPECT_TRUE(plain.trace.is_null());
}

}  // namespace
}  // namespace ap
