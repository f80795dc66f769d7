// Shared pieces of the AnnoPar benchmark driver: the seeded RNG, the
// clock, sample statistics, the span recorder used by traced runs, and the
// result every workload hands back to main().
//
// The benchmark only calls the program's public entry points; everything
// here is the benchmark's own bookkeeping.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "driver/pipeline.h"
#include "service/scheduler.h"

namespace perfbench {

// splitmix64: the benchmark's only source of randomness. Every input
// (request order, generated program, edit stream) derives from --seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi].
  int range(int lo, int hi) {
    return lo + static_cast<int>(next() % static_cast<uint64_t>(hi - lo + 1));
  }
  bool chance(int percent) { return range(1, 100) <= percent; }
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[next() % i]);
  }

 private:
  uint64_t s_;
};

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}
inline double ms_since(Clock::time_point t0) { return ms_since(t0, Clock::now()); }
inline Clock::duration ms_duration(double ms) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double, std::milli>(ms));
}
inline Clock::time_point deadline_after(double seconds) {
  return Clock::now() + ms_duration(seconds * 1000.0);
}

// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double mean(const std::vector<double>& v);
double geomean(const std::vector<double>& v);

// A uniform random sample of bounded size (reservoir sampling), so the
// memory a workload's samples take does not grow with its throughput and
// peak_rss_mb measures the program, not the sample count.
class Reservoir {
 public:
  explicit Reservoir(size_t cap) : cap_(cap) {}
  void add(double x) {
    ++n_;
    if (v_.size() < cap_) {
      v_.push_back(x);
    } else if (uint64_t j = rng_.next() % n_; j < cap_) {
      v_[j] = x;
    }
  }
  const std::vector<double>& values() const { return v_; }
  bool empty() const { return v_.empty(); }

 private:
  size_t cap_;
  uint64_t n_ = 0;
  Rng rng_{0x5A3D1E};
  std::vector<double> v_;
};

// Peak resident set of this process, in MiB.
double peak_rss_mb();

// Host-speed calibration. A shared host's speed drifts by 10-25% within
// seconds with other tenants' load, and the benchmark's timings drift
// with it. A HostSpeed times a fixed calibration kernel
// between operations throughout the run and reports times at a reference
// speed: a wall time measured now, times the kernel's reference time over
// the median of its last kWindow samples. A kernel calls no code of the
// program, so a change to the program moves the scaled figures exactly as
// much as the wall times; only the host moves the kernel.
//
// Each kernel is matched to the work it scales, by measurement (see
// perfbench/METRICS.md):
// - host_speed(), single-thread compute: every set-up (mostly in-process
//   compiles), compile_suite's compiles, edit_loop's edits and serve_hot's
//   in-process baseline compiles;
// - a loopback round-trip kernel (serve.cpp): serve_hot's hits, mostly
//   wake-ups and system calls that the compute kernel does not follow;
// - a fork-join kernel (run_suite.cpp): run_suite's T-thread runs, mostly
//   waits for parked workers to wake.
// run_suite's serial runs followed none of the kernels and stay wall
// times. Every other end-to-end time is at reference speed, and a speed-up
// is the ratio of the two times as reported. Per-layer metrics are wall
// times.
class HostSpeed {
 public:
  // `kernel` runs one sample and returns its wall ms; a host running at
  // the reference speed takes `reference_ms` for it.
  HostSpeed(double reference_ms, std::function<double()> kernel)
      : reference_ms_(reference_ms), kernel_(std::move(kernel)) {}

  // Times the kernel when kEveryMs have passed since the last sample.
  // Returns the seconds spent, which callers keep out of measured windows.
  // Call it only between operations, with nothing in flight.
  double tick();
  // A wall time just measured, at the reference speed.
  double at_reference(double wall_ms) const;
  // Reference over the run's median sample (1 before any), for the
  // record: a per-layer wall time times this is at reference speed.
  double scale() const;
  double median_ms() const { return median(ms_); }
  size_t samples() const { return ms_.size(); }

 private:
  static constexpr double kEveryMs = 40;
  static constexpr size_t kWindow = 5;
  double reference_ms_;
  std::function<double()> kernel_;
  std::vector<double> ms_;
  Clock::time_point last_{};
};

// The compute kernel's record, shared by set-up and measurement. Its
// reference: a host on which one sample takes 1 ms (the 4-vCPU host the
// bounds were set on took 0.9-1.5 ms).
HostSpeed& host_speed();

// The layers an operation's own spans are charged to: the benchmark's
// client-side work, the layers the pass manager's pass records name, the
// daemon round trip and the interpreter. The other layers (annot, sema,
// service, incr, analysis, support) run only inside one of these, and the
// program exposes no timing for them there; they are measured by probes.
enum class Layer : int { bench, fir, xform, par, pm, net, interp, kCount };
const char* layer_name(Layer l);

// In-memory span recorder. A workload opens one root span per operation
// and nests a span around each call it makes into a layer; spans are kept
// until the run ends. Disabled recorders cost one branch per call.
//
// A probe is a traced run's extra call into a layer's public function on
// the operation's input (a lex, a cache-key hash, a codec round trip). Its
// span covers part of its parent but is charged to no layer, so repeated
// work does not inflate a layer's self time and the client's self time
// does not include it; its cost shows in trace.overhead_pct.
class Tracer {
 public:
  explicit Tracer(bool enabled) : on_(enabled) {}
  bool enabled() const { return on_; }

  // Records a finished span and returns its id (-1 when disabled).
  int add(Layer layer, int parent, Clock::time_point t0, Clock::time_point t1);
  // Records a finished probe span under `parent`.
  void probe(int parent, Clock::time_point t0, Clock::time_point t1);
  // Opens a span ending at the matching close().
  int open(Layer layer, int parent);
  void close(int id);

  // Children laid out back to back from `t0`, for work the program times
  // itself (the pass manager's PassRecords): durations are measured, start
  // offsets assume no gaps between passes.
  void add_passes(int parent, Clock::time_point t0,
                  const ap::driver::PipelineTimings& timings);

  // Self time per layer in ms (span duration minus the part of it its
  // children and probes cover), summed over every recorded span.
  std::map<std::string, double> self_ms() const;

 private:
  struct Span {
    Layer layer;
    int parent;
    Clock::time_point t0, t1;
    bool probe;
  };
  bool on_;
  std::vector<Span> spans_;
};

// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 15;

// trace.overhead_pct: the median wall time of a whole operation (root span
// open to close, probes included) in the traced half over the same in the
// untraced half, minus 1, in percent.
double overhead_pct(const std::vector<double>& traced_op_ms,
                    const std::vector<double>& untraced_op_ms);

// The layer the pass manager's pass of this name belongs to.
Layer pass_layer(const std::string& pass);
// The seven catalogue passes (driver/passes.h), for per-pass metrics.
const std::vector<std::string>& pass_names();
// Short config label used in metric names: none, conventional, annotation.
const char* config_label(ap::driver::InlineConfig c);

// What a workload returns to main().
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Operation latencies (the measured path only), ms.
  std::vector<double> latency_ms;
  double wall_s = 0;      // measured window
  double exec_ms = 0;     // one pass over the workload's 36 operations
  std::vector<double> speedups;  // per job: baseline / measured
  std::vector<double> setup_s;   // one entry per set-up repetition
  // Per-layer metrics of a traced run, by name, with their units.
  std::map<std::string, std::pair<double, std::string>> layer;
  // Human-readable verdicts, each computed from this run's data.
  std::vector<std::string> verdicts;
  // One line per job (name, measured and baseline medians), for the record.
  std::vector<std::string> rows;
  // Threads and connections the load used (recorded with the result).
  int threads = 1;
  int connections = 0;
  // Extra calibration records for the env line (HostSpeed), by name.
  std::map<std::string, double> calibration;

  void fail(uint64_t n, const std::string& why);
  void set(const std::string& name, double value, const std::string& unit) {
    layer[name] = {value, unit};
  }
};

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = 4;  // T = min(4, nproc)
};

// Table II totals and annotation losses over one pass of suite_matrix()
// (results in job order). Empty string when they match the paper.
std::string check_table2(const std::vector<ap::service::CompileJob>& jobs,
                         const std::vector<std::set<int64_t>>& loops,
                         const std::vector<size_t>& lines);

// Deterministic counts reported by every workload that compiles the suite.
void report_suite_counts(Outcome& out,
                         const std::vector<ap::service::CompileJob>& jobs,
                         const std::vector<std::set<int64_t>>& loops,
                         const std::vector<size_t>& lines);

// Adds a zero-valued entry for every per-layer metric the workload did not
// set, so each traced run reports the full set; a layer the workload does
// not exercise reads 0.
void declare_layer_metrics(Outcome& out);

// Workloads.
Outcome run_compile_suite(const RunConfig& cfg);
Outcome run_serve_hot(const RunConfig& cfg);
Outcome run_edit_loop(const RunConfig& cfg);
Outcome run_run_suite(const RunConfig& cfg);

}  // namespace perfbench
