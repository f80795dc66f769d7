// Serving-layer throughput: requests/sec and p50/p95 latency through a
// live in-process apserved core, cold cache vs warm, for each of the
// serving-path modes:
//
//   sequential  — one call at a time on one connection
//   pipelined8  — 8 requests in flight on one connection
//
// The headline block is printed to stdout AND written to BENCH_net.json
// in the working directory (CI uploads it as an artifact).
//
// `--smoke` runs a reduced round count, skips the google-benchmark
// timers, and exits nonzero unless warm pipelined rps beats warm
// sequential rps — the CI net-throughput job runs exactly this.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "net/client.h"
#include "net/server.h"

using namespace ap;

namespace {

using clock_type = std::chrono::steady_clock;

int hw_threads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw ? static_cast<int>(hw) : 4;
}

struct BenchServer {
  service::ResultCache cache{256};
  service::Scheduler scheduler;
  net::Server server;

  BenchServer()
      : scheduler(sched_opts()), server(server_opts()) {
    std::string err;
    if (!server.start(&err)) {
      std::fprintf(stderr, "bench_net: server start failed: %s\n",
                   err.c_str());
      std::exit(1);
    }
  }
  ~BenchServer() {
    server.begin_drain();
    server.wait();
  }

  service::Scheduler::Options sched_opts() {
    service::Scheduler::Options so;
    so.threads = 1;
    so.cache = &cache;
    return so;
  }
  net::ServerOptions server_opts() {
    net::ServerOptions no;
    no.port = 0;
    no.threads = hw_threads();
    no.max_queue = 1024;
    no.request_timeout_ms = 0;
    no.scheduler = &scheduler;
    return no;
  }
};

struct Measurement {
  double rps = 0;     // requests per second
  double p50_ms = 0;  // per round trip
  double p95_ms = 0;
};

net::Request to_request(const service::CompileJob& job) {
  net::Request req;
  req.type = net::RequestType::Compile;
  req.name = job.app.name;
  req.source = job.app.source;
  req.annotations = job.app.annotations;
  req.options = job.opts;
  return req;
}

bool connect_client(net::Client* client, int port) {
  std::string err;
  if (!client->connect(port, &err, 120'000)) {
    std::fprintf(stderr, "bench_net: connect failed: %s\n", err.c_str());
    return false;
  }
  return true;
}

Measurement finish(std::vector<double> latencies, size_t items,
                   double wall_s) {
  Measurement m;
  std::sort(latencies.begin(), latencies.end());
  m.rps = wall_s > 0 ? static_cast<double>(items) / wall_s : 0;
  m.p50_ms = bench::percentile(latencies, 0.50);
  m.p95_ms = bench::percentile(latencies, 0.95);
  return m;
}

// One connection, one call at a time.
Measurement drive_sequential(int port, int rounds) {
  auto jobs = service::suite_matrix();
  net::Client client;
  if (!connect_client(&client, port)) return {};
  std::vector<double> latencies;
  std::string err;
  auto t_start = clock_type::now();
  for (int r = 0; r < rounds; ++r) {
    for (const auto& job : jobs) {
      net::Response resp;
      auto t0 = clock_type::now();
      if (!client.call(to_request(job), &resp, &err)) {
        std::fprintf(stderr, "bench_net: call failed: %s\n", err.c_str());
        return {};
      }
      latencies.push_back(
          std::chrono::duration<double, std::milli>(clock_type::now() - t0)
              .count());
    }
  }
  double wall_s =
      std::chrono::duration<double>(clock_type::now() - t_start).count();
  size_t items = latencies.size();
  return finish(std::move(latencies), items, wall_s);
}

// One connection, `depth` requests in flight, responses re-associated by
// id as they return (possibly out of order).
Measurement drive_pipelined(int port, int rounds, int depth) {
  auto jobs = service::suite_matrix();
  net::Client client;
  if (!connect_client(&client, port)) return {};
  size_t total = jobs.size() * static_cast<size_t>(rounds);
  std::vector<double> latencies;
  std::unordered_map<int64_t, clock_type::time_point> inflight;
  std::string err;
  size_t submitted = 0, done = 0;
  auto t_start = clock_type::now();
  while (done < total) {
    while (submitted < total &&
           inflight.size() < static_cast<size_t>(depth)) {
      int64_t id = 0;
      if (!client.submit(to_request(jobs[submitted % jobs.size()]), &id,
                         &err)) {
        std::fprintf(stderr, "bench_net: submit failed: %s\n", err.c_str());
        return {};
      }
      inflight[id] = clock_type::now();
      ++submitted;
    }
    net::Response resp;
    if (!client.recv_any(&resp, &err)) {
      std::fprintf(stderr, "bench_net: recv failed: %s\n", err.c_str());
      return {};
    }
    auto it = inflight.find(resp.id);
    if (it == inflight.end()) continue;
    latencies.push_back(
        std::chrono::duration<double, std::milli>(clock_type::now() -
                                                  it->second)
            .count());
    inflight.erase(it);
    ++done;
  }
  double wall_s =
      std::chrono::duration<double>(clock_type::now() - t_start).count();
  return finish(std::move(latencies), total, wall_s);
}

void append_measurement(std::string* out, const char* key,
                        const Measurement& m, bool last = false) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "    \"%s\": {\"rps\": %.1f, \"p50_ms\": %.3f, "
                "\"p95_ms\": %.3f}%s\n",
                key, m.rps, m.p50_ms, m.p95_ms, last ? "" : ",");
  *out += buf;
}

// Returns true when the smoke gate holds: warm pipelined rps beats warm
// sequential rps.
bool run_headline(int warm_rounds, bool write_file) {
  bench::header("NET THROUGHPUT (BENCH_net.json)");

  BenchServer bs;  // fresh server and cache => the first pass is cold
  Measurement cold = drive_sequential(bs.server.port(), 1);
  Measurement sequential = drive_sequential(bs.server.port(), warm_rounds);
  Measurement pipelined = drive_pipelined(bs.server.port(), warm_rounds, 8);

  double multiple = sequential.rps > 0 ? pipelined.rps / sequential.rps : 0;
  bool beats = pipelined.rps > sequential.rps;

  std::string out;
  out += "{\n  \"bench\": \"net_throughput\",\n";
  out += "  \"jobs_per_round\": 36,\n";
  char buf[256];
  std::snprintf(buf, sizeof buf, "  \"warm_rounds\": %d,\n", warm_rounds);
  out += buf;
  out += "  \"runs\": {\n";
  append_measurement(&out, "cold_sequential", cold);
  append_measurement(&out, "warm_sequential", sequential);
  append_measurement(&out, "warm_pipelined8", pipelined, /*last=*/true);
  out += "  },\n";
  std::snprintf(buf, sizeof buf,
                "  \"gate\": {\"warm_sequential_rps\": %.1f, "
                "\"warm_pipelined8_rps\": %.1f, \"multiple\": %.2f, "
                "\"pipelined_beats_sequential\": %s}\n}\n",
                sequential.rps, pipelined.rps, multiple,
                beats ? "true" : "false");
  out += buf;

  std::fputs(out.c_str(), stdout);
  if (write_file) {
    if (std::FILE* f = std::fopen("BENCH_net.json", "w")) {
      std::fwrite(out.data(), 1, out.size(), f);
      std::fclose(f);
      std::fprintf(stderr, "bench_net: wrote BENCH_net.json\n");
    } else {
      std::fprintf(stderr, "bench_net: could not write BENCH_net.json\n");
    }
  }
  std::fprintf(stderr,
               "bench_net: warm pipelined8 %.1f rps vs warm sequential "
               "%.1f rps (%.2fx)\n",
               pipelined.rps, sequential.rps, multiple);
  return beats;
}

void BM_RoundTripWarm(benchmark::State& state) {
  BenchServer bs;
  auto jobs = service::suite_matrix();
  net::Client client;
  if (!connect_client(&client, bs.server.port())) {
    state.SkipWithError("connect failed");
    return;
  }
  std::string err;
  net::Response resp;
  client.call(to_request(jobs[0]), &resp, &err);  // prewarm
  for (auto _ : state) {
    if (!client.call(to_request(jobs[0]), &resp, &err)) {
      state.SkipWithError(err.c_str());
      return;
    }
    benchmark::DoNotOptimize(resp);
  }
}

void BM_Ping(benchmark::State& state) {
  BenchServer bs;
  net::Client client;
  if (!connect_client(&client, bs.server.port())) {
    state.SkipWithError("connect failed");
    return;
  }
  std::string err;
  for (auto _ : state) {
    net::Request req;
    req.type = net::RequestType::Ping;
    net::Response resp;
    if (!client.call(std::move(req), &resp, &err)) {
      state.SkipWithError(err.c_str());
      return;
    }
    benchmark::DoNotOptimize(resp);
  }
}

}  // namespace

BENCHMARK(BM_RoundTripWarm)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Ping)->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  bool gate = run_headline(/*warm_rounds=*/smoke ? 2 : 5,
                           /*write_file=*/true);
  if (smoke) {
    if (!gate) {
      std::fprintf(stderr,
                   "bench_net: SMOKE FAIL — warm pipelined rps did not "
                   "beat warm sequential rps\n");
      return 1;
    }
    std::fprintf(stderr, "bench_net: smoke gate passed\n");
    return 0;
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
