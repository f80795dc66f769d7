// Unit tests for the distributed fleet (src/dist): rendezvous-hash
// stability under membership churn, the per-worker health state machine
// under dropped heartbeats and transport failures, coordinator failover
// when a worker dies mid-batch, and the peer cache tier's probe/fill
// messages avoiding recompute.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dist/coordinator.h"
#include "dist/fleet.h"
#include "dist/membership.h"
#include "dist/shard.h"
#include "dist/worker.h"
#include "driver/pipeline.h"
#include "fir/unparse.h"
#include "incr/fingerprint.h"
#include "incr/unit_cache.h"
#include "net/client.h"
#include "service/cache.h"
#include "suite/suite.h"
#include "support/tlv.h"

namespace ap {
namespace {

using std::chrono::milliseconds;
using time_point = std::chrono::steady_clock::time_point;

// ---------------------------------------------------------------------------
// Rendezvous hashing
// ---------------------------------------------------------------------------

std::vector<std::string> fleet_ids(int n) {
  std::vector<std::string> ids;
  for (int i = 0; i < n; ++i) ids.push_back("w" + std::to_string(i));
  return ids;
}

// Deterministic spread of content keys (mirrors real cache keys only in
// being 64-bit and well mixed).
std::vector<uint64_t> sample_keys(size_t n) {
  std::vector<uint64_t> keys;
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    keys.push_back(x);
  }
  return keys;
}

TEST(Shard, ScoreIsDeterministicAndIdSensitive) {
  EXPECT_EQ(dist::hrw_score(42, "w1"), dist::hrw_score(42, "w1"));
  EXPECT_NE(dist::hrw_score(42, "w1"), dist::hrw_score(42, "w2"));
  EXPECT_NE(dist::hrw_score(42, "w1"), dist::hrw_score(43, "w1"));
}

TEST(Shard, LeaveRemapsOnlyTheDepartedWorkersKeys) {
  auto ids = fleet_ids(5);
  auto keys = sample_keys(500);

  std::map<uint64_t, std::vector<std::string>> before;
  for (uint64_t k : keys) before[k] = dist::rank_workers(k, ids);

  // Remove w2. For every key, the surviving workers' relative order must
  // be untouched — the new ranking is exactly the old one minus w2. In
  // particular a key whose owner was not w2 keeps its owner.
  std::vector<std::string> survivors;
  for (const auto& id : ids)
    if (id != "w2") survivors.push_back(id);

  size_t remapped = 0;
  for (uint64_t k : keys) {
    auto after = dist::rank_workers(k, survivors);
    std::vector<std::string> expect;
    for (const auto& id : before[k])
      if (id != "w2") expect.push_back(id);
    ASSERT_EQ(after, expect) << "key " << k;
    if (before[k][0] == "w2") {
      ++remapped;
      EXPECT_EQ(after[0], before[k][1]);  // failover target takes over
    } else {
      EXPECT_EQ(after[0], before[k][0]);
    }
  }
  // ~1/5 of the keyspace belonged to w2; allow generous slack.
  EXPECT_GT(remapped, keys.size() / 10);
  EXPECT_LT(remapped, keys.size() / 3);
}

TEST(Shard, JoinStealsOnlyWhatTheNewWorkerWins) {
  auto ids = fleet_ids(4);
  auto keys = sample_keys(500);

  std::map<uint64_t, std::string> owner_before;
  for (uint64_t k : keys) owner_before[k] = dist::rank_workers(k, ids)[0];

  auto grown = ids;
  grown.push_back("w9");
  size_t stolen = 0;
  for (uint64_t k : keys) {
    auto after = dist::rank_workers(k, grown);
    if (after[0] == "w9")
      ++stolen;
    else
      EXPECT_EQ(after[0], owner_before[k]) << "key " << k;
  }
  // w9 should win roughly 1/5 of the keyspace.
  EXPECT_GT(stolen, keys.size() / 10);
  EXPECT_LT(stolen, keys.size() / 3);
}

TEST(Shard, LoadAwareRankingStablyDemotesSaturatedWorkers) {
  auto ids = fleet_ids(5);
  const uint64_t key = 42;
  auto pure = dist::rank_workers(key, ids);

  // Nobody saturated: identical to pure rendezvous order.
  std::vector<dist::RankCandidate> cands;
  for (const auto& id : ids) cands.push_back({id, 0});
  EXPECT_EQ(dist::rank_workers_loaded(key, cands, 8), pure);

  // saturation <= 0 disables the demotion no matter the load.
  for (auto& c : cands) c.load = 1'000;
  EXPECT_EQ(dist::rank_workers_loaded(key, cands, 0), pure);

  // The hash winner saturates: it moves behind every unsaturated worker
  // while the others keep their relative order — so failover targets
  // (and their warm caches) are unchanged.
  cands.clear();
  for (const auto& id : ids) cands.push_back({id, id == pure[0] ? 20 : 0});
  std::vector<std::string> expect(pure.begin() + 1, pure.end());
  expect.push_back(pure[0]);
  EXPECT_EQ(dist::rank_workers_loaded(key, cands, 8), expect);

  // Two saturated (load == saturation counts): both demoted, rendezvous
  // order preserved inside both groups.
  cands.clear();
  for (const auto& id : ids)
    cands.push_back({id, (id == pure[0] || id == pure[2]) ? 8 : 7});
  expect = {pure[1], pure[3], pure[4], pure[0], pure[2]};
  EXPECT_EQ(dist::rank_workers_loaded(key, cands, 8), expect);
}

// ---------------------------------------------------------------------------
// Membership health state machine (all time injected)
// ---------------------------------------------------------------------------

net::WorkerInfo winfo(const std::string& id, int port = 7000) {
  return {id, "127.0.0.1", port};
}

std::vector<std::string> routable_ids(const dist::Membership& m) {
  std::vector<std::string> out;
  for (const auto& w : m.routable()) out.push_back(w.id);
  return out;
}

dist::Health health_of(const dist::Membership& m, const std::string& id) {
  for (const auto& member : m.snapshot())
    if (member.info.id == id) return member.health;
  ADD_FAILURE() << "no member " << id;
  return dist::Health::Dead;
}

TEST(Membership, DroppedHeartbeatsAgeAliveToSuspectToDead) {
  dist::Membership m({/*suspect_after_ms=*/2'000, /*dead_after_ms=*/6'000});
  time_point t0{};
  m.join(winfo("a"), t0);
  m.join(winfo("b", 7001), t0);

  // Fresh: both alive and routable.
  m.tick(t0 + milliseconds(500));
  EXPECT_EQ(health_of(m, "a"), dist::Health::Alive);
  EXPECT_EQ(routable_ids(m), (std::vector<std::string>{"a", "b"}));

  // `a` heartbeats, `b` goes silent.
  m.heartbeat(winfo("a"), {}, /*leaving=*/false, t0 + milliseconds(2'500));
  m.tick(t0 + milliseconds(3'000));
  EXPECT_EQ(health_of(m, "a"), dist::Health::Alive);
  EXPECT_EQ(health_of(m, "b"), dist::Health::Suspect);
  // Suspect workers remain routable — they rank where they rank.
  EXPECT_EQ(routable_ids(m), (std::vector<std::string>{"a", "b"}));

  // Past dead_after_ms of silence `b` is dead and unroutable.
  m.heartbeat(winfo("a"), {}, false, t0 + milliseconds(6'200));
  m.tick(t0 + milliseconds(6'500));
  EXPECT_EQ(health_of(m, "b"), dist::Health::Dead);
  EXPECT_EQ(routable_ids(m), (std::vector<std::string>{"a"}));
  EXPECT_EQ(m.died(), 1u);

  // A late heartbeat revives it.
  m.heartbeat(winfo("b", 7001), {}, false, t0 + milliseconds(7'000));
  EXPECT_EQ(health_of(m, "b"), dist::Health::Alive);
  EXPECT_EQ(routable_ids(m), (std::vector<std::string>{"a", "b"}));
}

TEST(Membership, TransportFailuresEscalateAndSuccessRevives) {
  dist::Membership m({});
  time_point t0{};
  m.join(winfo("a"), t0);

  m.note_failure("a");
  EXPECT_EQ(health_of(m, "a"), dist::Health::Suspect);
  EXPECT_EQ(routable_ids(m), (std::vector<std::string>{"a"}));

  // A success while merely Suspect revives and resets the count.
  m.note_success("a");
  EXPECT_EQ(health_of(m, "a"), dist::Health::Alive);
  m.note_failure("a");
  EXPECT_EQ(health_of(m, "a"), dist::Health::Suspect);

  m.note_failure("a");
  EXPECT_EQ(health_of(m, "a"), dist::Health::Dead);
  EXPECT_TRUE(routable_ids(m).empty());
  EXPECT_EQ(m.died(), 1u);

  // Dead is sticky against a straggling success — only the worker's own
  // heartbeat resurrects it.
  m.note_success("a");
  EXPECT_EQ(health_of(m, "a"), dist::Health::Dead);
  m.heartbeat(winfo("a"), {}, false, t0 + milliseconds(100));
  EXPECT_EQ(health_of(m, "a"), dist::Health::Alive);
  EXPECT_EQ(routable_ids(m), (std::vector<std::string>{"a"}));
}

TEST(Membership, LeavingHeartbeatIsGracefulDeparture) {
  dist::Membership m({});
  time_point t0{};
  m.join(winfo("a"), t0);
  m.join(winfo("b", 7001), t0);
  EXPECT_EQ(m.joined(), 2u);

  m.heartbeat(winfo("a"), {}, /*leaving=*/true, t0 + milliseconds(100));
  EXPECT_EQ(routable_ids(m), (std::vector<std::string>{"b"}));
  EXPECT_EQ(m.left(), 1u);
  // The record is kept (a rejoin under the same id is recognized)...
  EXPECT_EQ(m.snapshot().size(), 2u);
  // ...and a re-register makes it routable again.
  m.join(winfo("a"), t0 + milliseconds(200));
  EXPECT_EQ(routable_ids(m), (std::vector<std::string>{"a", "b"}));
}

// ---------------------------------------------------------------------------
// Live fleet: failover and the peer cache tier
// ---------------------------------------------------------------------------

// Distinct tiny programs: distinct content keys spread across the ring.
suite::BenchmarkApp tiny_app(int i) {
  suite::BenchmarkApp app;
  app.name = "TINY" + std::to_string(i);
  app.source = "      PROGRAM TINY\n"
               "      REAL A(10)\n"
               "      INTEGER I\n"
               "      DO 10 I = 1, 10\n"
               "        A(I) = I * " + std::to_string(i + 2) + ".0\n"
               "   10 CONTINUE\n"
               "      END\n";
  return app;
}

net::Request compile_request(const suite::BenchmarkApp& app) {
  net::Request req;
  req.type = net::RequestType::Compile;
  req.name = app.name;
  req.source = app.source;
  req.annotations = app.annotations;
  return req;
}

TEST(DistFleet, FailoverSurvivesWorkerCrashMidBatch) {
  dist::FleetOptions fo;
  fo.workers = 3;
  fo.worker_threads = 1;
  fo.heartbeat_interval_ms = 100;
  // Long heartbeat timeouts: the crash must be discovered through
  // transport failures on the routing plane, not the timeout sweep.
  fo.membership = {/*suspect_after_ms=*/60'000, /*dead_after_ms=*/120'000};
  dist::Fleet fleet(fo);
  std::string err;
  ASSERT_TRUE(fleet.start(&err)) << err;

  // Crash one worker without any announcement.
  fleet.worker(0)->stop_hard();
  fleet.worker(0)->wait();

  // Every request in the batch must still succeed: requests sharded onto
  // the dead worker hit a transport failure and fail over along the hash
  // ranking.
  net::Client client;
  ASSERT_TRUE(client.connect(fleet.coordinator_port(), &err, 120'000)) << err;
  for (int i = 0; i < 24; ++i) {
    net::Response resp;
    ASSERT_TRUE(client.call(compile_request(tiny_app(i)), &resp, &err))
        << "job " << i << ": " << err;
    ASSERT_EQ(resp.status, net::Status::Ok) << "job " << i << ": "
                                            << resp.error;
    ASSERT_TRUE(resp.has_result);
    EXPECT_TRUE(resp.result.ok);
  }

  // With 24 keys over 3 workers it is (1 - (2/3)^24) certain some routed
  // to the dead one first, so the health plane must have noticed.
  service::FleetStats fs = fleet.coordinator()->fleet_stats();
  EXPECT_GE(fs.failovers, 1u);
  EXPECT_GE(fs.workers_dead, 1u);
  bool dead_seen = false;
  for (const auto& member : fleet.coordinator()->membership().snapshot())
    if (member.health == dist::Health::Dead) dead_seen = true;
  EXPECT_TRUE(dead_seen);

  fleet.drain_all();
}

TEST(DistFleet, CacheProbeHitAvoidsRecompute) {
  // A standalone worker answers the peer cache-tier messages directly:
  // probe a compiled key, fill a foreign key, and observe that the fill
  // is served as a cache hit (no recompute) afterwards.
  service::ResultCache cache(64);
  dist::WorkerOptions wo;
  wo.id = "solo";
  wo.threads = 1;
  wo.cache = &cache;
  dist::Worker worker(wo);
  std::string err;
  ASSERT_TRUE(worker.start(&err)) << err;

  net::Client client;
  ASSERT_TRUE(client.connect(worker.port(), &err, 120'000)) << err;

  // Compile once; the result now lives under its content key.
  suite::BenchmarkApp app = tiny_app(1);
  net::Response compiled;
  ASSERT_TRUE(client.call(compile_request(app), &compiled, &err)) << err;
  ASSERT_EQ(compiled.status, net::Status::Ok) << compiled.error;
  EXPECT_FALSE(compiled.result.cache_hit);
  uint64_t key = service::cache_key(app.source, app.annotations, {});

  // cache_probe for that key returns the serialized result.
  net::Request probe;
  probe.type = net::RequestType::CacheProbe;
  probe.key = net::format_key(key);
  net::Response presp;
  ASSERT_TRUE(client.call(std::move(probe), &presp, &err)) << err;
  ASSERT_EQ(presp.status, net::Status::Ok) << presp.error;
  ASSERT_TRUE(presp.found);
  auto decoded = service::deserialize_result(presp.payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->program_text, compiled.result.program_text);

  // Probing a key nobody compiled is a clean miss, not an error.
  net::Request miss;
  miss.type = net::RequestType::CacheProbe;
  miss.key = net::format_key(key + 1);
  ASSERT_TRUE(client.call(std::move(miss), &presp, &err)) << err;
  EXPECT_EQ(presp.status, net::Status::Ok);
  EXPECT_FALSE(presp.found);

  // cache_fill plants a foreign result; compiling that source afterwards
  // is a pure cache hit — the fill did the work.
  suite::BenchmarkApp other = tiny_app(2);
  uint64_t other_key = service::cache_key(other.source, other.annotations, {});
  net::Request fill;
  fill.type = net::RequestType::CacheFill;
  fill.key = net::format_key(other_key);
  fill.payload = service::serialize_result(*decoded);
  net::Response fresp;
  ASSERT_TRUE(client.call(std::move(fill), &fresp, &err)) << err;
  ASSERT_EQ(fresp.status, net::Status::Ok) << fresp.error;

  net::Response again;
  ASSERT_TRUE(client.call(compile_request(other), &again, &err)) << err;
  ASSERT_EQ(again.status, net::Status::Ok) << again.error;
  EXPECT_TRUE(again.result.cache_hit);
  // The planted payload is what comes back — no recompute happened.
  EXPECT_EQ(again.result.program_text, decoded->program_text);

  EXPECT_GE(worker.peer_stats().fills_received, 1u);

  worker.begin_drain();
  worker.wait();
}

TEST(DistFleet, SaturatedWorkerIsSteeredAround) {
  // Two standalone workers enrolled by hand, so the test fully controls
  // the heartbeat load reports: `wa` claims a deep queue, `wb` is idle.
  // Every request must steer off the saturated worker — without a single
  // failover, because steering is routing, not failure handling.
  dist::CoordinatorOptions co;
  co.membership = {/*suspect_after_ms=*/60'000, /*dead_after_ms=*/120'000};
  dist::Coordinator coord(co);
  std::string err;
  ASSERT_TRUE(coord.start(&err)) << err;

  service::ResultCache cache_a(64), cache_b(64);
  dist::WorkerOptions wo;
  wo.threads = 1;
  wo.id = "wa";
  wo.cache = &cache_a;
  dist::Worker wa(wo);
  ASSERT_TRUE(wa.start(&err)) << err;
  wo.id = "wb";
  wo.cache = &cache_b;
  dist::Worker wb(wo);
  ASSERT_TRUE(wb.start(&err)) << err;

  net::Client ctl;
  ASSERT_TRUE(ctl.connect(coord.port(), &err, 120'000)) << err;
  auto enroll = [&](const std::string& id, int port, int64_t queue_depth) {
    net::Request reg;
    reg.type = net::RequestType::Register;
    reg.worker = {id, "127.0.0.1", port};
    net::Response resp;
    ASSERT_TRUE(ctl.call(std::move(reg), &resp, &err)) << err;
    ASSERT_EQ(resp.status, net::Status::Ok) << resp.error;
    net::Request hb;
    hb.type = net::RequestType::Heartbeat;
    hb.worker = {id, "127.0.0.1", port};
    hb.load.queue_depth = queue_depth;
    ASSERT_TRUE(ctl.call(std::move(hb), &resp, &err)) << err;
    ASSERT_EQ(resp.status, net::Status::Ok) << resp.error;
  };
  enroll("wa", wa.port(), 100);  // far past the saturation threshold
  enroll("wb", wb.port(), 0);

  net::Client client;
  ASSERT_TRUE(client.connect(coord.port(), &err, 120'000)) << err;
  for (int i = 0; i < 12; ++i) {
    net::Response resp;
    ASSERT_TRUE(client.call(compile_request(tiny_app(i)), &resp, &err))
        << "job " << i << ": " << err;
    ASSERT_EQ(resp.status, net::Status::Ok) << "job " << i << ": "
                                            << resp.error;
  }

  // Every compile landed on the idle worker; the saturated one was never
  // asked. With 12 keys over 2 workers some surely hashed home to `wa`,
  // so steers were counted — and none of this is failure handling.
  EXPECT_EQ(cache_b.memory_entries(), 12u);
  EXPECT_EQ(cache_a.memory_entries(), 0u);
  service::FleetStats fs = coord.fleet_stats();
  EXPECT_GE(fs.load_steers, 1u);
  EXPECT_EQ(fs.failovers, 0u);
  EXPECT_EQ(fs.worker_lost, 0u);
  EXPECT_EQ(fs.forwarded, 12u);
  // All 12 forwards shared one pooled channel to `wb`.
  EXPECT_EQ(fs.channels_opened, 1u);

  coord.begin_drain();
  coord.wait();
  wa.begin_drain();
  wa.wait();
  wb.begin_drain();
  wb.wait();
}

// A three-unit app for the unit-artifact tier tests: editing UTWO leaves
// UONE's dependence closure untouched, so exactly one unit is reusable
// across the edit.
suite::BenchmarkApp three_unit_app() {
  suite::BenchmarkApp app;
  app.name = "TRIPLET";
  app.source = "      PROGRAM MAIN\n"
               "      REAL A(16)\n"
               "      CALL UONE(A)\n"
               "      CALL UTWO(A)\n"
               "      S = 0.0\n"
               "      DO 10 I = 1, 16\n"
               "        S = S + A(I)\n"
               "   10 CONTINUE\n"
               "      WRITE(*,*) S\n"
               "      END\n"
               "\n"
               "      SUBROUTINE UONE(A)\n"
               "      REAL A(16)\n"
               "      DO 20 I = 1, 16\n"
               "        A(I) = I * 2.0\n"
               "   20 CONTINUE\n"
               "      END\n"
               "\n"
               "      SUBROUTINE UTWO(A)\n"
               "      REAL A(16)\n"
               "      DO 30 I = 1, 16\n"
               "        A(I) = A(I) + 1.0\n"
               "   30 CONTINUE\n"
               "      END\n";
  return app;
}

TEST(DistFleet, UnitProbeAndFillAnswerFromTheUnitCache) {
  // A standalone worker answers the unit-artifact messages directly from
  // its attached incr::UnitCache, byte-exactly and without ever recursing
  // into its own peer hooks.
  service::ResultCache cache(64);
  incr::UnitCache units(64);
  dist::WorkerOptions wo;
  wo.id = "solo";
  wo.threads = 1;
  wo.cache = &cache;
  wo.unit_cache = &units;
  dist::Worker worker(wo);
  std::string err;
  ASSERT_TRUE(worker.start(&err)) << err;

  // Serialized snapshots: the wire carries the disk tier's snapshot
  // record, and strings may hold any byte.
  auto snapshot_bytes = [](const std::string& reason) {
    incr::UnitSnapshot snap;
    snap.par.loops.emplace_back();
    snap.par.loops[0].reason = reason;
    return incr::serialize_snapshot(snap);
  };
  std::string payload = snapshot_bytes(std::string("opaque \0 bytes", 15));
  ASSERT_TRUE(units.adopt("parallelize", 0xbeef, payload));

  net::Client client;
  ASSERT_TRUE(client.connect(worker.port(), &err, 120'000)) << err;

  // Probe the held key: found, payload byte-exact.
  net::Request probe;
  probe.type = net::RequestType::UnitProbe;
  probe.key = net::format_key(0xbeef);
  net::Response resp;
  ASSERT_TRUE(client.call(std::move(probe), &resp, &err)) << err;
  ASSERT_EQ(resp.status, net::Status::Ok) << resp.error;
  ASSERT_TRUE(resp.found);
  EXPECT_EQ(resp.payload, payload);

  // An unknown key is a clean miss, not an error.
  net::Request miss;
  miss.type = net::RequestType::UnitProbe;
  miss.key = net::format_key(0xdead);
  ASSERT_TRUE(client.call(std::move(miss), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::Ok);
  EXPECT_FALSE(resp.found);

  // A fill lands in the cache under its boundary and is servable back.
  net::Request fill;
  fill.type = net::RequestType::UnitFill;
  fill.key = net::format_key(0xf111);
  fill.boundary = "parallelize";
  fill.payload = snapshot_bytes("pushed");
  ASSERT_TRUE(client.call(std::move(fill), &resp, &err)) << err;
  ASSERT_EQ(resp.status, net::Status::Ok) << resp.error;
  auto held = units.peek(0xf111);
  ASSERT_TRUE(held.has_value());
  EXPECT_EQ(*held, snapshot_bytes("pushed"));
  EXPECT_GE(worker.peer_stats().unit_fills_received, 1u);

  // A fill whose payload is not a snapshot is refused and not held.
  net::Request junk;
  junk.type = net::RequestType::UnitFill;
  junk.key = net::format_key(0xf333);
  junk.boundary = "parallelize";
  junk.payload = "APUSER 1 pushed";
  ASSERT_TRUE(client.call(std::move(junk), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::Error);
  EXPECT_FALSE(units.peek(0xf333).has_value());

  // A fill without its boundary label is a structured error — the
  // receiver cannot bucket the artifact. (A malformed key never reaches
  // the handler: the codec rejects it at decode time.)
  net::Request nobound;
  nobound.type = net::RequestType::UnitFill;
  nobound.key = net::format_key(0xf222);
  ASSERT_TRUE(client.call(std::move(nobound), &resp, &err)) << err;
  EXPECT_EQ(resp.status, net::Status::Error);
  EXPECT_NE(resp.error.find("boundary"), std::string::npos);

  worker.begin_drain();
  worker.wait();
}

// Peer payloads are outside input, decoded on the worker's loop thread. A
// cache_fill or unit_fill record that declares lengths far past its own
// size draws a structured error before anything is allocated, and the
// worker keeps answering.
TEST(DistFleet, HostileFillPayloadsDrawErrorsAndTheWorkerSurvives) {
  service::ResultCache cache(64);
  incr::UnitCache units(64);
  dist::WorkerOptions wo;
  wo.id = "solo";
  wo.threads = 1;
  wo.cache = &cache;
  wo.unit_cache = &units;
  dist::Worker worker(wo);
  std::string err;
  ASSERT_TRUE(worker.start(&err)) << err;
  net::Client client;
  ASSERT_TRUE(client.connect(worker.port(), &err, 120'000)) << err;

  // A record header, then `body` writes the hostile fields.
  auto record = [](unsigned char magic, uint64_t version, auto body) {
    std::string out;
    tlv::Writer w(&out);
    w.u8(magic);
    w.varint(version);
    body(w);
    return out;
  };
  const uint64_t huge = 100'000'000'000'000'000ull;  // 1e17
  auto result = [&](unsigned char tag) {
    return record(service::kCacheRecordMagic, service::kCacheFormatVersion,
                  [&](tlv::Writer& w) {
                    w.u8(tag);
                    w.varint(huge);
                  });
  };
  auto snapshot = [&](auto body) {
    return record(incr::kSnapshotMagic, incr::kUnitCacheFormatVersion, body);
  };
  struct Fill {
    const char* what;
    net::RequestType type;
    std::string payload;
  };
  const Fill fills[] = {
      {"program length", net::RequestType::CacheFill, result(11)},
      {"print_dump length", net::RequestType::CacheFill, result(12)},
      {"parallel_loops count", net::RequestType::CacheFill, result(4)},
      {"origin_ids count", net::RequestType::UnitFill,
       snapshot([&](tlv::Writer& w) {
         w.u8(3);
         w.varint(huge);
       })},
      {"privates count", net::RequestType::UnitFill,
       snapshot([&](tlv::Writer& w) {
         w.u8(2);  // marks: one OmpMark
         w.varint(1);
         w.u8(2);  // its OmpInfo
         w.u8(2);  // privates
         w.varint(huge);
       })},
      {"reductions count", net::RequestType::UnitFill,
       snapshot([&](tlv::Writer& w) {
         w.u8(2);
         w.varint(1);
         w.u8(2);
         w.u8(4);  // reductions
         w.varint(huge);
       })},
  };
  uint64_t key = 0xbad0;
  for (const Fill& f : fills) {
    net::Request fill;
    fill.type = f.type;
    fill.key = net::format_key(++key);
    fill.boundary = "parallelize";
    fill.payload = f.payload;
    net::Response resp;
    ASSERT_TRUE(client.call(std::move(fill), &resp, &err)) << f.what << err;
    EXPECT_EQ(resp.status, net::Status::Error) << f.what;
    EXPECT_NE(resp.error.find("undecodable"), std::string::npos)
        << f.what << ": " << resp.error;
    EXPECT_FALSE(units.peek(key).has_value()) << f.what;

    net::Request ping;
    ping.type = net::RequestType::Ping;
    ASSERT_TRUE(client.call(std::move(ping), &resp, &err)) << f.what << err;
    EXPECT_EQ(resp.status, net::Status::Ok) << f.what;
  }
  EXPECT_EQ(cache.stats().stores, 0u);

  worker.begin_drain();
  worker.wait();
}

TEST(DistFleet, LateJoiningWorkerResumesUnitsFromPeer) {
  // Worker A compiles an app and holds its unit artifacts. Worker B joins
  // AFTER that compile, then receives an edited version of the same app:
  // B's whole-result probe misses everywhere (nobody compiled the edited
  // source), but the unchanged unit's pass-boundary keys hit A via
  // unit_probe — B resumes mid-pipeline from a peer's snapshots, and the
  // result is bit-identical to a cold local compile.
  dist::CoordinatorOptions co;
  co.membership = {/*suspect_after_ms=*/60'000, /*dead_after_ms=*/120'000};
  dist::Coordinator coord(co);
  std::string err;
  ASSERT_TRUE(coord.start(&err)) << err;

  service::ResultCache cache_a(64), cache_b(64);
  incr::UnitCache units_a(64), units_b(64);
  dist::WorkerOptions wo;
  wo.threads = 1;
  wo.coordinator_port = coord.port();
  wo.heartbeat_interval_ms = 100;
  wo.id = "wa";
  wo.cache = &cache_a;
  wo.unit_cache = &units_a;
  dist::Worker wa(wo);
  ASSERT_TRUE(wa.start(&err)) << err;

  suite::BenchmarkApp app = three_unit_app();
  net::Client to_a;
  ASSERT_TRUE(to_a.connect(wa.port(), &err, 120'000)) << err;
  net::Response built;
  ASSERT_TRUE(to_a.call(compile_request(app), &built, &err)) << err;
  ASSERT_EQ(built.status, net::Status::Ok) << built.error;
  EXPECT_EQ(built.result.unit_misses, 3u);  // cold fill of A's unit tier

  // B joins late: its registration response lists A as a routable peer.
  dist::Worker wb([&] {
    dist::WorkerOptions o = wo;
    o.id = "wb";
    o.cache = &cache_b;
    o.unit_cache = &units_b;
    return o;
  }());
  ASSERT_TRUE(wb.start(&err)) << err;
  ASSERT_FALSE(wb.peers().empty());

  suite::BenchmarkApp edited = app;
  edited.source = incr::mutate_unit(app.source, "UTWO", 5);
  ASSERT_NE(edited.source, app.source);

  net::Client to_b;
  ASSERT_TRUE(to_b.connect(wb.port(), &err, 120'000)) << err;
  net::Response resumed;
  ASSERT_TRUE(to_b.call(compile_request(edited), &resumed, &err)) << err;
  ASSERT_EQ(resumed.status, net::Status::Ok) << resumed.error;
  EXPECT_FALSE(resumed.result.cache_hit);
  // UONE resumed from A's snapshot; MAIN and UTWO recompiled.
  EXPECT_EQ(resumed.result.unit_hits, 1u);
  EXPECT_EQ(resumed.result.unit_peer_hits, 1u);
  EXPECT_EQ(resumed.result.unit_misses, 2u);
  service::PeerCacheStats bstats = wb.peer_stats();
  EXPECT_GE(bstats.unit_probes_sent, 1u);
  EXPECT_GE(bstats.unit_probe_hits, 1u);
  // B's fresh unit computes were pushed back to A (unit_fill replication).
  EXPECT_GE(bstats.unit_fills_sent, 1u);
  EXPECT_GE(wa.peer_stats().unit_fills_received, 1u);

  // Peer-resumed output is bit-identical to a cold local compile.
  driver::PipelineResult cold =
      driver::run_pipeline(edited, driver::PipelineOptions{});
  ASSERT_TRUE(cold.ok);
  ASSERT_TRUE(cold.program != nullptr);
  EXPECT_EQ(resumed.result.program_text, fir::unparse(*cold.program));

  coord.begin_drain();
  coord.wait();
  wa.begin_drain();
  wa.wait();
  wb.begin_drain();
  wb.wait();
}

TEST(DistFleet, GracefulLeaveIsAnnouncedNotDiscovered) {
  dist::FleetOptions fo;
  fo.workers = 2;
  fo.worker_threads = 1;
  fo.heartbeat_interval_ms = 100;
  fo.membership = {/*suspect_after_ms=*/60'000, /*dead_after_ms=*/120'000};
  dist::Fleet fleet(fo);
  std::string err;
  ASSERT_TRUE(fleet.start(&err)) << err;

  fleet.worker(1)->begin_drain();
  fleet.worker(1)->wait();

  // The departure was announced: the worker left, nothing died, and the
  // survivor serves the whole keyspace without a single failover.
  EXPECT_EQ(fleet.coordinator()->membership().left(), 1u);
  EXPECT_EQ(fleet.coordinator()->membership().died(), 0u);

  net::Client client;
  ASSERT_TRUE(client.connect(fleet.coordinator_port(), &err, 120'000)) << err;
  for (int i = 0; i < 8; ++i) {
    net::Response resp;
    ASSERT_TRUE(client.call(compile_request(tiny_app(i)), &resp, &err)) << err;
    ASSERT_EQ(resp.status, net::Status::Ok) << resp.error;
  }
  EXPECT_EQ(fleet.coordinator()->fleet_stats().failovers, 0u);

  fleet.drain_all();
}

}  // namespace
}  // namespace ap
