#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <numeric>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double peak_rss_mb() {
  // VmHWM belongs to this program image. getrusage's ru_maxrss would not
  // do: Linux carries it across execve, so it can report the launching
  // script's peak instead.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

namespace {

// libc malloc behind a std allocator: the calibration kernel allocates
// through it, so a replacement of operator new in the program cannot
// reach the kernel.
template <class T>
struct MallocAllocator {
  using value_type = T;
  MallocAllocator() = default;
  template <class U>
  MallocAllocator(const MallocAllocator<U>&) {}
  T* allocate(size_t n) {
    if (void* p = std::malloc(n * sizeof(T))) return static_cast<T*>(p);
    throw std::bad_alloc();
  }
  void deallocate(T* p, size_t) { std::free(p); }
  template <class U>
  bool operator==(const MallocAllocator<U>&) const { return true; }
};

using KString = std::basic_string<char, std::char_traits<char>, MallocAllocator<char>>;
using KMap = std::map<KString, int, std::less<>, MallocAllocator<std::pair<const KString, int>>>;

// Every sample's result feeds this, so none of the kernel is optimised away.
volatile uint64_t g_kernel_sink = 0;

// The kernel's fixed source text: 600 Fortran-like assignment lines.
const KString& kernel_text() {
  static const KString text = [] {
    Rng rng(0xF0F0);
    KString t;
    char line[96];
    for (int i = 0; i < 600; ++i) {
      std::snprintf(line, sizeof line, "      X%llu(I) = A%llu * B(J+%d) + 1.5\n",
                    static_cast<unsigned long long>(rng.next() % 500),
                    static_cast<unsigned long long>(rng.next() % 50), i % 7);
      t += line;
    }
    return t;
  }();
  return text;
}

// One compute-kernel sample, in two parts that each follow a suite
// compile's speed on a shared host: (1) build a map of 300
// identifier-like strings, copy its keys out and sort them, three times;
// (2) split the fixed text into identifier and number tokens and count
// them in a symbol map. Small allocations, string compares and pointer
// chasing are where a compile spends its time; a kernel over static
// arrays, with no allocation, followed the compile less well
// (perfbench/METRICS.md has the measurements).
double run_kernel_ms() {
  const KString& text = kernel_text();
  auto t0 = Clock::now();
  Rng rng(0xC0FFEE);
  uint64_t acc = 0;
  for (int rep = 0; rep < 3; ++rep) {
    KMap names;
    char buf[32];
    for (int i = 0; i < 300; ++i) {
      std::snprintf(buf, sizeof buf, "identifier_%llu",
                    static_cast<unsigned long long>(rng.next() % 100000));
      names[KString(buf)] += i;
    }
    std::vector<KString, MallocAllocator<KString>> keys;
    for (const auto& [k, v] : names) keys.push_back(k + "_");
    std::sort(keys.begin(), keys.end(), std::greater<>());
    acc += keys.size() + static_cast<uint64_t>(keys.front().size());
  }
  std::vector<KString, MallocAllocator<KString>> toks;
  for (size_t i = 0; i < text.size();) {
    size_t j = i;
    if (std::isalpha(static_cast<unsigned char>(text[i])))
      while (j < text.size() && std::isalnum(static_cast<unsigned char>(text[j]))) ++j;
    else
      while (j < text.size() && std::isdigit(static_cast<unsigned char>(text[j]))) ++j;
    if (j == i) {
      ++i;
      continue;
    }
    toks.emplace_back(text, i, j - i);
    i = j;
  }
  KMap symbols;
  for (const auto& t : toks) ++symbols[t];
  acc += symbols.size() + toks.size();
  g_kernel_sink = g_kernel_sink + acc;
  return ms_since(t0);
}

}  // namespace

double HostSpeed::tick() {
  auto now = Clock::now();
  if (!ms_.empty() && ms_since(last_, now) < kEveryMs) return 0;
  if (double ms = kernel_(); ms > 0) ms_.push_back(ms);
  last_ = Clock::now();
  return ms_since(now, last_) / 1000.0;
}

double HostSpeed::at_reference(double wall_ms) const {
  if (ms_.empty()) return wall_ms;
  size_t from = ms_.size() > kWindow ? ms_.size() - kWindow : 0;
  std::vector<double> recent(ms_.begin() + static_cast<std::ptrdiff_t>(from), ms_.end());
  return wall_ms * reference_ms_ / median(recent);
}

double HostSpeed::scale() const {
  double m = median_ms();
  return m > 0 ? reference_ms_ / m : 1.0;
}

HostSpeed& host_speed() {
  static HostSpeed hs(1.0, run_kernel_ms);
  return hs;
}

const char* layer_name(Layer l) {
  static const char* const kNames[] = {"bench", "fir", "xform", "par",
                                       "pm", "net", "interp"};
  return kNames[static_cast<int>(l)];
}

int Tracer::add(Layer layer, int parent, Clock::time_point t0,
                Clock::time_point t1) {
  if (!on_) return -1;
  spans_.push_back({layer, parent, t0, t1, false});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::probe(int parent, Clock::time_point t0, Clock::time_point t1) {
  if (on_) spans_.push_back({Layer::bench, parent, t0, t1, true});
}

int Tracer::open(Layer layer, int parent) {
  if (!on_) return -1;
  auto now = Clock::now();
  return add(layer, parent, now, now);
}

void Tracer::close(int id) {
  if (id >= 0) spans_[static_cast<size_t>(id)].t1 = Clock::now();
}

void Tracer::add_passes(int parent, Clock::time_point t0,
                        const ap::driver::PipelineTimings& timings) {
  if (!on_) return;
  for (const auto& rec : timings.passes) {
    auto t1 = t0 + ms_duration(rec.wall_ms);
    add(pass_layer(rec.name), parent, t0, t1);
    t0 = t1;
  }
}

std::map<std::string, double> Tracer::self_ms() const {
  // Children of each span, then per span: duration minus the union of its
  // children's and probes' intervals clipped to it.
  std::vector<std::vector<int>> kids(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent >= 0) kids[static_cast<size_t>(spans_[i].parent)].push_back(static_cast<int>(i));
  std::vector<double> self(static_cast<size_t>(Layer::kCount), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.probe) continue;
    std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
    for (int k : kids[i]) {
      auto a = std::max(spans_[static_cast<size_t>(k)].t0, s.t0);
      auto b = std::min(spans_[static_cast<size_t>(k)].t1, s.t1);
      if (a < b) iv.push_back({a, b});
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    Clock::time_point end = s.t0;
    for (const auto& [a, b] : iv) {
      auto from = std::max(a, end);
      if (b > from) {
        covered += ms_since(from, b);
        end = b;
      }
    }
    self[static_cast<size_t>(s.layer)] += ms_since(s.t0, s.t1) - covered;
  }
  std::map<std::string, double> out;
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l)
    out[layer_name(static_cast<Layer>(l))] = self[static_cast<size_t>(l)];
  return out;
}

double overhead_pct(const std::vector<double>& traced_op_ms,
                    const std::vector<double>& untraced_op_ms) {
  double base = median(untraced_op_ms);
  return base > 0 ? 100.0 * (median(traced_op_ms) / base - 1.0) : 0;
}

Layer pass_layer(const std::string& pass) {
  if (pass == "parse") return Layer::fir;
  if (pass == "parallelize") return Layer::par;
  if (pass == "collect-metrics") return Layer::pm;
  return Layer::xform;  // conv-inline, annot-inline, normalize, reverse-inline
}

const std::vector<std::string>& pass_names() {
  static const std::vector<std::string> kPasses = {
      "parse", "conv-inline", "annot-inline", "normalize",
      "parallelize", "reverse-inline", "collect-metrics"};
  return kPasses;
}

const char* config_label(ap::driver::InlineConfig c) {
  switch (c) {
    case ap::driver::InlineConfig::None: return "none";
    case ap::driver::InlineConfig::Conventional: return "conventional";
    case ap::driver::InlineConfig::Annotation: return "annotation";
  }
  return "?";
}

void Outcome::fail(uint64_t n, const std::string& why) {
  // Only the first few reasons are kept; the count is exact.
  if (failed < 5) std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  failed += n;
}

std::string check_table2(const std::vector<ap::service::CompileJob>& jobs,
                         const std::vector<std::set<int64_t>>& loops,
                         const std::vector<size_t>& lines) {
  // suite_matrix() holds each app's three configs consecutively.
  int none = 0, conv = 0, annot = 0, lost = 0;
  for (size_t i = 0; i + 2 < jobs.size(); i += 3) {
    auto row = ap::driver::make_table2_row(
        jobs[i].app.name, loops[i], lines[i], loops[i + 1], lines[i + 1],
        loops[i + 2], lines[i + 2]);
    none += row.par_none;
    conv += row.par_conv;
    annot += row.par_annot;
    lost += row.loss_annot;
  }
  if (none == 104 && conv == 99 && annot == 117 && lost == 0) return "";
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "Table II totals %d/%d/%d with %d annotation losses "
                "(expected 104/99/117 with 0)",
                none, conv, annot, lost);
  return buf;
}

void report_suite_counts(Outcome& out,
                         const std::vector<ap::service::CompileJob>& jobs,
                         const std::vector<std::set<int64_t>>& loops,
                         const std::vector<size_t>& lines) {
  std::map<std::string, double> par, code;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const char* c = config_label(jobs[i].opts.config);
    par[c] += static_cast<double>(loops[i].size());
    code[c] += static_cast<double>(lines[i]);
  }
  for (const auto& [c, n] : par) out.set("par.parallel_loops." + c, n, "count");
  for (const auto& [c, n] : code) out.set("xform.code_lines." + c, n, "count");
}

namespace {

void declare_all(Outcome& out) {
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l)
    out.set(std::string("self.") + layer_name(static_cast<Layer>(l)) + "_ms", 0, "ms");
  for (const char* n : {"fir.lex_ms", "fir.parse_ms", "annot.parse_ms",
                        "sema.build_ms", "pm.overhead_ms"})
    out.set(n, 0, "ms");
  for (const auto& p : pass_names()) out.set("pass." + p + "_ms", 0, "ms");
  out.set("analysis.dep_tests", 0, "count");
  out.set("analysis.dep_tests_unique", 0, "count");
  out.set("analysis.dep_memo_ratio", 0, "ratio");
  for (const char* c : {"none", "conventional", "annotation"}) {
    out.set(std::string("par.parallel_loops.") + c, 0, "count");
    out.set(std::string("xform.code_lines.") + c, 0, "count");
  }
  for (const char* n : {"net.encode_request_us", "net.decode_request_us",
                        "net.encode_response_us", "net.decode_response_us"})
    out.set(n, 0, "us");
  out.set("net.request_bytes", 0, "bytes");
  out.set("net.response_bytes", 0, "bytes");
  for (const char* n : {"net.queue_depth_peak", "net.pipeline_depth_peak",
                        "net.rejected_overload", "net.timed_out",
                        "net.protocol_errors"})
    out.set(n, 0, "count");
  for (const char* n : {"service.cache_key_us", "service.cache_find_us",
                        "service.cache_store_us"})
    out.set(n, 0, "us");
  out.set("service.cache_hit_ratio", 0, "ratio");
  out.set("service.cache_evictions", 0, "count");
  for (const char* n : {"incr.fingerprint_ms", "incr.dep_graph_ms", "incr.plan_ms",
                        "incr.snapshot_serialize_ms",
                        "incr.snapshot_deserialize_ms", "driver.cold_compile_ms"})
    out.set(n, 0, "ms");
  out.set("incr.unit_reuse_ratio", 0, "ratio");
  out.set("incr.units_invalidated", 0, "count");
  out.set("interp.bytecode_compile_ms", 0, "ms");
  out.set("interp.instructions_per_us", 0, "1/us");
  out.set("interp.serial_exec_ms", 0, "ms");
  out.set("interp.parallel_coverage", 0, "ratio");
  out.set("support.fork_join_us", 0, "us");
  out.set("run.programs_below_serial", 0, "count");
  out.set("driver.tune_ms", 0, "ms");
  out.set("driver.tune_loops_disabled", 0, "count");
  out.set("driver.tune_disagreements", 0, "count");
  out.set("trace.overhead_pct", 0, "%");
}

}  // namespace

void declare_layer_metrics(Outcome& out) {
  Outcome all;
  declare_all(all);
  for (const auto& [name, vu] : all.layer) out.layer.insert({name, vu});
}

}  // namespace perfbench
