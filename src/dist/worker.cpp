#include "dist/worker.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>

#include "dist/shard.h"
#include "incr/unit_cache.h"

namespace ap::dist {

namespace {
using clock = std::chrono::steady_clock;
}

Worker::Worker(const WorkerOptions& opts) : opts_(opts) {}

Worker::~Worker() {
  if (server_) {
    begin_drain();
    wait();
  } else {
    // start() failed or never ran; stop the heartbeat thread if any.
    {
      std::lock_guard<std::mutex> lock(hb_mu_);
      hb_stop_ = true;
    }
    hb_cv_.notify_all();
    if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  }
}

bool Worker::start(std::string* err) {
  if (!opts_.cache) {
    if (err) *err = "WorkerOptions.cache is required";
    return false;
  }

  service::Scheduler::Options so;
  so.threads = opts_.threads;
  so.cache = opts_.cache;
  so.telemetry = opts_.telemetry;
  so.unit_cache = opts_.unit_cache;
  if (opts_.coordinator_port > 0) {
    so.peer_lookup = [this](uint64_t key, uint64_t trace_id,
                            obs::Span* span) {
      return peer_lookup(key, trace_id, span);
    };
    so.on_store = [this](uint64_t key, const service::CompileResult& r,
                         uint64_t trace_id) { replicate(key, r, trace_id); };
    // Unit-artifact tier: a pass-boundary miss asks the fleet before the
    // pass recomputes, and fresh snapshots replicate to the same ranked
    // peers. Hooks fire outside the cache mutex (they do network I/O).
    if (opts_.unit_cache) {
      opts_.unit_cache->set_peer_lookup(
          [this](const std::string&, uint64_t key) {
            return unit_peer_lookup(key);
          });
      opts_.unit_cache->set_store_hook(
          [this](const std::string& boundary, uint64_t key,
                 const std::string& payload) {
            unit_replicate(boundary, key, payload);
          });
    }
  }
  scheduler_ = std::make_unique<service::Scheduler>(so);

  net::ServerOptions no;
  no.port = opts_.port;
  no.threads = opts_.threads;
  no.max_queue = opts_.max_queue;
  no.request_timeout_ms = opts_.request_timeout_ms;
  no.drain_timeout_ms = opts_.drain_timeout_ms;
  no.idle_timeout_ms = opts_.idle_timeout_ms;
  no.role = "worker";
  no.scheduler = scheduler_.get();
  no.telemetry = opts_.telemetry;
  no.slow_ms = opts_.slow_ms;
  no.control = [this](const net::Request& req, net::Response* resp) {
    return control(req, resp);
  };
  no.extra_metrics = [this](json::Value* out) {
    service::PeerCacheStats ps = peer_stats();
    json::Value peer = json::Value::object();
    peer.set("probes_sent", ps.probes_sent)
        .set("probe_hits", ps.probe_hits)
        .set("fills_sent", ps.fills_sent)
        .set("fills_received", ps.fills_received)
        .set("peer_hits", ps.peer_hits)
        .set("unit_probes_sent", ps.unit_probes_sent)
        .set("unit_probe_hits", ps.unit_probe_hits)
        .set("unit_fills_sent", ps.unit_fills_sent)
        .set("unit_fills_received", ps.unit_fills_received)
        .set("unit_peer_hits", ps.unit_peer_hits);
    out->set("peer_cache", std::move(peer));
  };
  server_ = std::make_unique<net::Server>(no);
  if (!server_->start(err)) {
    server_.reset();
    return false;
  }

  id_ = !opts_.id.empty()
            ? opts_.id
            : "w-" + std::to_string(::getpid()) + "-" +
                  std::to_string(server_->port());

  if (opts_.coordinator_port > 0) {
    net::Client client;
    if (!client.connect(opts_.coordinator_host, opts_.coordinator_port, err,
                        static_cast<int>(opts_.peer_timeout_ms)))
      return false;
    net::Request req;
    req.type = net::RequestType::Register;
    req.worker.id = id_;
    req.worker.host = opts_.host;
    req.worker.port = server_->port();
    net::Response resp;
    if (!client.call(std::move(req), &resp, err)) return false;
    if (resp.status != net::Status::Ok) {
      if (err) *err = "registration rejected: " + resp.error;
      return false;
    }
    if (resp.has_peers) adopt_peers(resp.peers);
    heartbeat_thread_ = std::thread([this] { heartbeat_main(); });
  }
  return true;
}

int Worker::port() const { return server_ ? server_->port() : 0; }

int Worker::wake_fd() const { return server_ ? server_->wake_fd() : -1; }

void Worker::begin_drain() {
  // Stop heartbeating, announce the departure, then drain the server.
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
    hb_stop_ = true;
  }
  hb_cv_.notify_all();
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  if (announce_on_stop_.exchange(false) && opts_.coordinator_port > 0)
    send_heartbeat(/*leaving=*/true);
  if (server_) server_->begin_drain();
}

void Worker::stop_hard() {
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
    hb_stop_ = true;
  }
  hb_cv_.notify_all();
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  announce_on_stop_.store(false);  // crash: no leaving announcement
  if (server_) server_->begin_drain();
}

void Worker::wait() {
  if (server_) server_->wait();
  // The drain may have been triggered externally ('q' on wake_fd, the
  // SIGTERM path): the heartbeat thread is still running and no departure
  // was announced — do both now so the coordinator learns of the leave.
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
    hb_stop_ = true;
  }
  hb_cv_.notify_all();
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  if (announce_on_stop_.exchange(false) && opts_.coordinator_port > 0)
    send_heartbeat(/*leaving=*/true);
}

service::PeerCacheStats Worker::peer_stats() const {
  service::PeerCacheStats s;
  s.probes_sent = probes_sent_.load();
  s.probe_hits = probe_hits_.load();
  s.fills_sent = fills_sent_.load();
  s.fills_received = fills_received_.load();
  s.peer_hits = peer_hits_.load();
  s.unit_probes_sent = unit_probes_sent_.load();
  s.unit_probe_hits = unit_probe_hits_.load();
  s.unit_fills_sent = unit_fills_sent_.load();
  s.unit_fills_received = unit_fills_received_.load();
  // A successful unit probe IS a unit served from the peer tier (the
  // UnitCache adopts the payload and counts the hit on its side too).
  s.unit_peer_hits = unit_probe_hits_.load();
  return s;
}

std::vector<net::WorkerInfo> Worker::peers() const {
  std::lock_guard<std::mutex> lock(peers_mu_);
  return peers_;
}

void Worker::adopt_peers(const std::vector<net::WorkerInfo>& peers) {
  std::lock_guard<std::mutex> lock(peers_mu_);
  peers_ = peers;
}

// ---------------------------------------------------------------------------
// Control plane: peer-facing cache tier
// ---------------------------------------------------------------------------

bool Worker::control(const net::Request& req, net::Response* resp) {
  switch (req.type) {
    case net::RequestType::CacheProbe: {
      uint64_t key = 0;
      if (!net::parse_key(req.key, &key)) {
        resp->status = net::Status::Error;
        resp->error = "unparseable cache key";
        return true;
      }
      if (auto hit = opts_.cache->find(key)) {
        resp->found = true;
        resp->payload = service::serialize_result(*hit);
      }
      return true;
    }
    case net::RequestType::CacheFill: {
      uint64_t key = 0;
      if (!net::parse_key(req.key, &key)) {
        resp->status = net::Status::Error;
        resp->error = "unparseable cache key";
        return true;
      }
      if (auto r = service::deserialize_result(req.payload)) {
        opts_.cache->store(key, *r);
        fills_received_.fetch_add(1);
        return true;
      }
      resp->status = net::Status::Error;
      resp->error = "undecodable cache_fill payload";
      return true;
    }
    case net::RequestType::UnitProbe: {
      uint64_t key = 0;
      if (!net::parse_key(req.key, &key)) {
        resp->status = net::Status::Error;
        resp->error = "unparseable unit key";
        return true;
      }
      // Local tiers only (peek): answering a probe must never recurse
      // into this worker's own peer hook.
      if (opts_.unit_cache) {
        if (auto payload = opts_.unit_cache->peek(key)) {
          resp->found = true;
          resp->payload = std::move(*payload);
        }
      }
      return true;
    }
    case net::RequestType::UnitFill: {
      uint64_t key = 0;
      if (!net::parse_key(req.key, &key)) {
        resp->status = net::Status::Error;
        resp->error = "unparseable unit key";
        return true;
      }
      if (req.boundary.empty()) {
        resp->status = net::Status::Error;
        resp->error = "unit_fill requires a \"boundary\"";
        return true;
      }
      // The cache decodes the payload into its live memory tier; bytes
      // that are not a snapshot are refused, like an undecodable
      // cache_fill.
      if (opts_.unit_cache) {
        if (!opts_.unit_cache->adopt(req.boundary, key, req.payload)) {
          resp->status = net::Status::Error;
          resp->error = "undecodable unit_fill payload";
          return true;
        }
        unit_fills_received_.fetch_add(1);
      }
      return true;
    }
    default:
      return false;  // register/heartbeat belong to the coordinator
  }
}

// Peers ranked best-first for `key`, excluding this worker.
static std::vector<net::WorkerInfo> ranked_peers(
    const std::vector<net::WorkerInfo>& peers, const std::string& self,
    uint64_t key) {
  std::vector<std::string> ids;
  for (const auto& p : peers)
    if (p.id != self) ids.push_back(p.id);
  ids = rank_workers(key, std::move(ids));
  std::vector<net::WorkerInfo> out;
  for (const auto& id : ids)
    for (const auto& p : peers)
      if (p.id == id) out.push_back(p);
  return out;
}

std::optional<service::CompileResult> Worker::peer_lookup(uint64_t key,
                                                          uint64_t trace_id,
                                                          obs::Span* span) {
  auto candidates = ranked_peers(peers(), id_, key);
  int budget = std::max(0, opts_.probe_peers);
  for (const auto& peer : candidates) {
    if (budget-- <= 0) break;
    auto t0 = clock::now();
    auto probe_span = [&](const char* outcome) {
      if (span)
        span->children.push_back(
            {"peer:probe", peer.id + " " + outcome,
             std::chrono::duration<double, std::milli>(clock::now() - t0)
                 .count(),
             {}});
    };
    net::Client client;
    std::string err;
    if (!client.connect(peer.host.empty() ? "127.0.0.1" : peer.host,
                        peer.port, &err,
                        static_cast<int>(opts_.peer_timeout_ms))) {
      probe_span("unreachable");
      continue;
    }
    net::Request req;
    req.type = net::RequestType::CacheProbe;
    req.key = net::format_key(key);
    req.trace_id = trace_id;
    net::Response resp;
    probes_sent_.fetch_add(1);
    if (!client.call(std::move(req), &resp, &err)) {
      probe_span("unreachable");
      continue;
    }
    if (resp.status != net::Status::Ok || !resp.found) {
      probe_span("miss");
      continue;
    }
    if (auto r = service::deserialize_result(resp.payload)) {
      probe_hits_.fetch_add(1);
      peer_hits_.fetch_add(1);
      probe_span("hit");
      return r;
    }
    probe_span("miss");
  }
  return std::nullopt;
}

void Worker::replicate(uint64_t key, const service::CompileResult& r,
                       uint64_t trace_id) {
  if (opts_.replicate <= 0) return;
  auto candidates = ranked_peers(peers(), id_, key);
  if (candidates.empty()) return;
  std::string payload = service::serialize_result(r);
  int budget = opts_.replicate;
  for (const auto& peer : candidates) {
    if (budget-- <= 0) break;
    net::Client client;
    std::string err;
    if (!client.connect(peer.host.empty() ? "127.0.0.1" : peer.host,
                        peer.port, &err,
                        static_cast<int>(opts_.peer_timeout_ms)))
      continue;
    net::Request req;
    req.type = net::RequestType::CacheFill;
    req.key = net::format_key(key);
    req.payload = payload;
    req.trace_id = trace_id;
    net::Response resp;
    if (client.call(std::move(req), &resp, &err) &&
        resp.status == net::Status::Ok)
      fills_sent_.fetch_add(1);
  }
}

std::optional<std::string> Worker::unit_peer_lookup(uint64_t key) {
  // Same rendezvous ranking as whole-result probes: the unit keyspace is
  // shared fleet-wide, so the most likely holder of a key is the worker
  // that owns (or recently owned) its shard.
  auto candidates = ranked_peers(peers(), id_, key);
  int budget = std::max(0, opts_.probe_peers);
  for (const auto& peer : candidates) {
    if (budget-- <= 0) break;
    net::Client client;
    std::string err;
    if (!client.connect(peer.host.empty() ? "127.0.0.1" : peer.host,
                        peer.port, &err,
                        static_cast<int>(opts_.peer_timeout_ms)))
      continue;
    net::Request req;
    req.type = net::RequestType::UnitProbe;
    req.key = net::format_key(key);
    net::Response resp;
    unit_probes_sent_.fetch_add(1);
    if (!client.call(std::move(req), &resp, &err)) continue;
    if (resp.status != net::Status::Ok || !resp.found) continue;
    unit_probe_hits_.fetch_add(1);
    return std::move(resp.payload);
  }
  return std::nullopt;
}

void Worker::unit_replicate(const std::string& boundary, uint64_t key,
                            const std::string& payload) {
  if (opts_.replicate <= 0) return;
  auto candidates = ranked_peers(peers(), id_, key);
  int budget = opts_.replicate;
  for (const auto& peer : candidates) {
    if (budget-- <= 0) break;
    net::Client client;
    std::string err;
    if (!client.connect(peer.host.empty() ? "127.0.0.1" : peer.host,
                        peer.port, &err,
                        static_cast<int>(opts_.peer_timeout_ms)))
      continue;
    net::Request req;
    req.type = net::RequestType::UnitFill;
    req.key = net::format_key(key);
    req.payload = payload;
    req.boundary = boundary;
    net::Response resp;
    if (client.call(std::move(req), &resp, &err) &&
        resp.status == net::Status::Ok)
      unit_fills_sent_.fetch_add(1);
  }
}

// ---------------------------------------------------------------------------
// Heartbeats
// ---------------------------------------------------------------------------

bool Worker::send_heartbeat(bool leaving) {
  net::Client client;
  std::string err;
  if (!client.connect(opts_.coordinator_host, opts_.coordinator_port, &err,
                      static_cast<int>(opts_.peer_timeout_ms)))
    return false;
  net::Request req;
  req.type = net::RequestType::Heartbeat;
  req.worker.id = id_;
  req.worker.host = opts_.host;
  req.worker.port = server_->port();
  req.leaving = leaving;
  req.load.queue_depth = server_->queue_depth();
  req.load.running = server_->jobs_running();
  service::CacheStats cs = opts_.cache->stats();
  req.load.cache_entries = opts_.cache->memory_entries();
  req.load.cache_hits = cs.hits();
  req.load.cache_misses = cs.misses;
  req.load.peer_hits = peer_hits_.load();
  // Latency summaries ride each heartbeat; the coordinator merges them
  // bucket-wise into fleet-wide quantiles.
  req.load.hist = obs::encode_histogram_set(server_->histogram_snapshots());
  net::Response resp;
  if (!client.call(std::move(req), &resp, &err)) return false;
  if (resp.status != net::Status::Ok) return false;
  if (!leaving && resp.has_peers) adopt_peers(resp.peers);
  return true;
}

void Worker::heartbeat_main() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(hb_mu_);
      hb_cv_.wait_for(lock,
                      std::chrono::milliseconds(opts_.heartbeat_interval_ms),
                      [&] { return hb_stop_; });
      if (hb_stop_) return;
    }
    send_heartbeat(/*leaving=*/false);  // failures retry next tick
  }
}

}  // namespace ap::dist
