#include "net/binproto.h"

#include <bit>
#include <cstdint>
#include <cstring>

#include "support/json.h"

namespace ap::net {

namespace {

// First byte of every payload.
constexpr unsigned char kBinaryMagic = 0xB4;

// Message kind byte (payload byte 1, after the magic).
constexpr unsigned char kKindRequest = 0x01;
constexpr unsigned char kKindResponse = 0x02;

// End-of-message tag, closing the top-level stream and every submessage.
constexpr unsigned char kEnd = 0x00;

// ---------------------------------------------------------------------------
// Primitive writers. All append-only; callers reuse the output buffer.

void put_u8(std::string* out, unsigned char b) {
  out->push_back(static_cast<char>(b));
}

void put_varint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void put_svarint(std::string* out, int64_t v) {
  // Zigzag: small magnitudes of either sign stay small on the wire.
  put_varint(out, (static_cast<uint64_t>(v) << 1) ^
                      static_cast<uint64_t>(v >> 63));
}

void put_str(std::string* out, std::string_view s) {
  put_varint(out, s.size());
  out->append(s.data(), s.size());
}

void put_double(std::string* out, double d) {
  uint64_t bits = std::bit_cast<uint64_t>(d);
  char buf[8];
  for (int i = 0; i < 8; ++i)
    buf[i] = static_cast<char>((bits >> (8 * i)) & 0xff);
  out->append(buf, 8);
}

void put_bool(std::string* out, bool b) { put_u8(out, b ? 1 : 0); }

// Tagged-field writers: tag byte, then the value.
void field_u8(std::string* out, unsigned char tag, unsigned char v) {
  put_u8(out, tag);
  put_u8(out, v);
}
void field_varint(std::string* out, unsigned char tag, uint64_t v) {
  put_u8(out, tag);
  put_varint(out, v);
}
void field_svarint(std::string* out, unsigned char tag, int64_t v) {
  put_u8(out, tag);
  put_svarint(out, v);
}
void field_str(std::string* out, unsigned char tag, std::string_view s) {
  put_u8(out, tag);
  put_str(out, s);
}
void field_double(std::string* out, unsigned char tag, double d) {
  put_u8(out, tag);
  put_double(out, d);
}
void field_bool(std::string* out, unsigned char tag, bool b) {
  put_u8(out, tag);
  put_bool(out, b);
}

// ---------------------------------------------------------------------------
// Bounds-checked reader. Never throws, never reads past `end`; the first
// failure latches (fail_) and every later read returns a zero value, so
// decode loops can defer the check to their exit.

class BinReader {
 public:
  BinReader(std::string_view data)
      : p_(data.data()), end_(data.data() + data.size()) {}

  bool failed() const { return fail_; }
  const std::string& error() const { return err_; }
  bool at_end() const { return p_ == end_; }

  unsigned char u8() {
    if (fail_ || p_ == end_) return set_fail("truncated byte");
    return static_cast<unsigned char>(*p_++);
  }

  uint64_t varint() {
    if (fail_) return 0;
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (p_ == end_) return set_fail("truncated varint");
      unsigned char b = static_cast<unsigned char>(*p_++);
      if (shift >= 63 && b > 1) return set_fail("varint overflow");
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if (!(b & 0x80)) return v;
      shift += 7;
    }
  }

  int64_t svarint() {
    uint64_t z = varint();
    return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  std::string_view str() {
    uint64_t n = varint();
    if (fail_) return {};
    if (n > static_cast<uint64_t>(end_ - p_)) {
      set_fail("truncated string");
      return {};
    }
    std::string_view s(p_, static_cast<size_t>(n));
    p_ += n;
    return s;
  }

  double dbl() {
    if (fail_ || end_ - p_ < 8) {
      set_fail("truncated double");
      return 0;
    }
    uint64_t bits = 0;
    for (int i = 0; i < 8; ++i)
      bits |= static_cast<uint64_t>(static_cast<unsigned char>(p_[i]))
              << (8 * i);
    p_ += 8;
    return std::bit_cast<double>(bits);
  }

  bool boolean() { return u8() != 0; }

  uint64_t set_fail(const char* what) {
    if (!fail_) {
      fail_ = true;
      err_ = what;
    }
    return 0;
  }

 private:
  const char* p_;
  const char* end_;
  bool fail_ = false;
  std::string err_;
};

// ---------------------------------------------------------------------------
// Nested message codecs. Each mirrors the field set the JSON rendering in
// protocol.cpp shows — the round-trip-equality tests compare through the
// JSON dump, so any divergence here is caught immediately.

void enc_pipeline_options(std::string* out, const driver::PipelineOptions& o) {
  unsigned char config = 0;
  switch (o.config) {
    case driver::InlineConfig::None: config = 0; break;
    case driver::InlineConfig::Conventional: config = 1; break;
    case driver::InlineConfig::Annotation: config = 2; break;
  }
  field_u8(out, 1, config);
  field_svarint(out, 2, o.par.min_trip);
  field_bool(out, 3, o.par.normalize);
  field_bool(out, 4, o.par.mark_nested);
  field_bool(out, 5, o.par.use_banerjee);
  field_bool(out, 6, o.par.use_siv_refinement);
  field_bool(out, 7, o.par.collect_all_blockers);
  field_varint(out, 8, o.conv.max_stmts);
  field_svarint(out, 9, o.conv.max_callee_calls);
  field_bool(out, 10, o.conv.require_in_loop);
  field_bool(out, 11, o.conv.eliminate_dead_units);
  field_svarint(out, 12, o.conv.max_passes);
  field_bool(out, 13, o.annot.require_in_loop);
  field_bool(out, 14, o.reverse.tolerate_reordering);
  field_bool(out, 15, o.reverse.tolerate_forward_subst);
  field_bool(out, 16, o.reverse.tolerate_literals);
  field_bool(out, 17, o.reverse.fallback_to_hints);
  if (!o.stop_after.empty()) field_str(out, 18, o.stop_after);
  if (!o.print_after.empty()) field_str(out, 19, o.print_after);
  put_u8(out, kEnd);
}

bool dec_pipeline_options(BinReader& r, driver::PipelineOptions* out) {
  driver::PipelineOptions o;
  while (true) {
    unsigned char tag = r.u8();
    if (r.failed()) return false;
    if (tag == kEnd) break;
    switch (tag) {
      case 1: {
        unsigned char c = r.u8();
        if (c > 2) {
          r.set_fail("bad inline config");
          return false;
        }
        o.config = c == 0   ? driver::InlineConfig::None
                   : c == 1 ? driver::InlineConfig::Conventional
                            : driver::InlineConfig::Annotation;
        break;
      }
      case 2: o.par.min_trip = r.svarint(); break;
      case 3: o.par.normalize = r.boolean(); break;
      case 4: o.par.mark_nested = r.boolean(); break;
      case 5: o.par.use_banerjee = r.boolean(); break;
      case 6: o.par.use_siv_refinement = r.boolean(); break;
      case 7: o.par.collect_all_blockers = r.boolean(); break;
      case 8: o.conv.max_stmts = static_cast<size_t>(r.varint()); break;
      case 9:
        o.conv.max_callee_calls = static_cast<int>(r.svarint());
        break;
      case 10: o.conv.require_in_loop = r.boolean(); break;
      case 11: o.conv.eliminate_dead_units = r.boolean(); break;
      case 12: o.conv.max_passes = static_cast<int>(r.svarint()); break;
      case 13: o.annot.require_in_loop = r.boolean(); break;
      case 14: o.reverse.tolerate_reordering = r.boolean(); break;
      case 15: o.reverse.tolerate_forward_subst = r.boolean(); break;
      case 16: o.reverse.tolerate_literals = r.boolean(); break;
      case 17: o.reverse.fallback_to_hints = r.boolean(); break;
      case 18: o.stop_after = std::string(r.str()); break;
      case 19: o.print_after = std::string(r.str()); break;
      default:
        r.set_fail("unknown pipeline-options tag");
        return false;
    }
    if (r.failed()) return false;
  }
  *out = o;
  return true;
}

void enc_interp_options(std::string* out, const interp::InterpOptions& o) {
  field_u8(out, 1, o.engine == interp::Engine::Tree ? 0 : 1);
  field_svarint(out, 2, o.num_threads);
  field_bool(out, 3, o.enable_parallel);
  field_svarint(out, 4, o.max_steps);
  field_bool(out, 5, o.check_bounds);
  put_u8(out, kEnd);
}

bool dec_interp_options(BinReader& r, interp::InterpOptions* out) {
  interp::InterpOptions o;
  while (true) {
    unsigned char tag = r.u8();
    if (r.failed()) return false;
    if (tag == kEnd) break;
    switch (tag) {
      case 1: {
        unsigned char e = r.u8();
        if (e > 1) {
          r.set_fail("bad interp engine");
          return false;
        }
        o.engine = e == 0 ? interp::Engine::Tree : interp::Engine::Bytecode;
        break;
      }
      case 2: o.num_threads = static_cast<int>(r.svarint()); break;
      case 3: o.enable_parallel = r.boolean(); break;
      case 4: o.max_steps = r.svarint(); break;
      case 5: o.check_bounds = r.boolean(); break;
      default:
        r.set_fail("unknown interp-options tag");
        return false;
    }
    if (r.failed()) return false;
  }
  if (o.num_threads < 1) o.num_threads = 1;
  *out = o;
  return true;
}

void enc_worker_info(std::string* out, const WorkerInfo& w) {
  field_str(out, 1, w.id);
  field_str(out, 2, w.host);
  field_svarint(out, 3, w.port);
  put_u8(out, kEnd);
}

bool dec_worker_info(BinReader& r, WorkerInfo* out) {
  WorkerInfo w;
  while (true) {
    unsigned char tag = r.u8();
    if (r.failed()) return false;
    if (tag == kEnd) break;
    switch (tag) {
      case 1: w.id = std::string(r.str()); break;
      case 2: w.host = std::string(r.str()); break;
      case 3: w.port = static_cast<int>(r.svarint()); break;
      default:
        r.set_fail("unknown worker-info tag");
        return false;
    }
    if (r.failed()) return false;
  }
  *out = w;
  return true;
}

void enc_worker_load(std::string* out, const WorkerLoad& l) {
  field_svarint(out, 1, l.queue_depth);
  field_svarint(out, 2, l.running);
  field_varint(out, 3, l.cache_entries);
  field_varint(out, 4, l.cache_hits);
  field_varint(out, 5, l.cache_misses);
  field_varint(out, 6, l.peer_hits);
  if (!l.hist.empty()) field_str(out, 7, l.hist);
  put_u8(out, kEnd);
}

bool dec_worker_load(BinReader& r, WorkerLoad* out) {
  WorkerLoad l;
  while (true) {
    unsigned char tag = r.u8();
    if (r.failed()) return false;
    if (tag == kEnd) break;
    switch (tag) {
      case 1: l.queue_depth = r.svarint(); break;
      case 2: l.running = r.svarint(); break;
      case 3: l.cache_entries = r.varint(); break;
      case 4: l.cache_hits = r.varint(); break;
      case 5: l.cache_misses = r.varint(); break;
      case 6: l.peer_hits = r.varint(); break;
      case 7: l.hist = std::string(r.str()); break;
      default:
        r.set_fail("unknown worker-load tag");
        return false;
    }
    if (r.failed()) return false;
  }
  *out = l;
  return true;
}

void enc_hello(std::string* out, const HelloInfo& h) {
  field_svarint(out, 1, h.version);
  field_str(out, 2, h.role);
  field_bool(out, 3, h.draining);
  put_u8(out, kEnd);
}

bool dec_hello(BinReader& r, HelloInfo* out) {
  HelloInfo h;
  while (true) {
    unsigned char tag = r.u8();
    if (r.failed()) return false;
    if (tag == kEnd) break;
    switch (tag) {
      case 1: h.version = static_cast<int>(r.svarint()); break;
      case 2: h.role = std::string(r.str()); break;
      case 3: h.draining = r.boolean(); break;
      default:
        r.set_fail("unknown hello tag");
        return false;
    }
    if (r.failed()) return false;
  }
  *out = h;
  return true;
}

void enc_compile_result(std::string* out, const service::CompileResult& c) {
  field_bool(out, 1, c.ok);
  if (!c.error.empty()) field_str(out, 2, c.error);
  field_bool(out, 3, c.cache_hit);
  put_u8(out, 4);
  put_varint(out, c.parallel_loops.size());
  for (int64_t id : c.parallel_loops) put_svarint(out, id);
  field_varint(out, 5, c.code_lines);
  field_varint(out, 6, c.dep_tests);
  field_varint(out, 7, c.dep_tests_unique);
  field_double(out, 8, c.timings.total_ms);
  put_u8(out, 9);
  put_varint(out, c.timings.passes.size());
  for (const auto& p : c.timings.passes) {
    field_str(out, 1, p.name);
    field_double(out, 2, p.wall_ms);
    field_svarint(out, 3, p.units);
    field_svarint(out, 4, p.diagnostics);
    // Per-boundary counters, emitted only when the pass snapshotted
    // (mirrors the JSON rendering's emit-when-nonzero rule).
    if (p.unit_hits + p.unit_misses > 0) {
      field_svarint(out, 5, p.unit_hits);
      field_svarint(out, 6, p.unit_misses);
      field_svarint(out, 7, p.unit_disk_hits);
      field_svarint(out, 8, p.unit_peer_hits);
      field_svarint(out, 9, p.unit_invalidated);
    }
    put_u8(out, kEnd);
  }
  field_bool(out, 10, c.stopped_early);
  field_str(out, 11, c.program_text);
  if (!c.print_dump.empty()) field_str(out, 12, c.print_dump);
  field_bool(out, 13, c.peer_hit);
  field_varint(out, 14, c.unit_hits);
  field_varint(out, 15, c.unit_misses);
  field_varint(out, 16, c.unit_invalidated);
  field_varint(out, 17, c.unit_disk_hits);
  field_varint(out, 18, c.unit_peer_hits);
  put_u8(out, kEnd);
}

bool dec_compile_result(BinReader& r, service::CompileResult* out) {
  service::CompileResult c;
  while (true) {
    unsigned char tag = r.u8();
    if (r.failed()) return false;
    if (tag == kEnd) break;
    switch (tag) {
      case 1: c.ok = r.boolean(); break;
      case 2: c.error = std::string(r.str()); break;
      case 3: c.cache_hit = r.boolean(); break;
      case 4: {
        uint64_t n = r.varint();
        for (uint64_t i = 0; i < n && !r.failed(); ++i)
          c.parallel_loops.insert(r.svarint());
        break;
      }
      case 5: c.code_lines = static_cast<size_t>(r.varint()); break;
      case 6: c.dep_tests = static_cast<size_t>(r.varint()); break;
      case 7: c.dep_tests_unique = static_cast<size_t>(r.varint()); break;
      case 8: c.timings.total_ms = r.dbl(); break;
      case 9: {
        uint64_t n = r.varint();
        for (uint64_t i = 0; i < n && !r.failed(); ++i) {
          pm::PassRecord p;
          while (true) {
            unsigned char ptag = r.u8();
            if (r.failed()) return false;
            if (ptag == kEnd) break;
            switch (ptag) {
              case 1: p.name = std::string(r.str()); break;
              case 2: p.wall_ms = r.dbl(); break;
              case 3: p.units = static_cast<int>(r.svarint()); break;
              case 4: p.diagnostics = static_cast<int>(r.svarint()); break;
              case 5: p.unit_hits = static_cast<int>(r.svarint()); break;
              case 6: p.unit_misses = static_cast<int>(r.svarint()); break;
              case 7:
                p.unit_disk_hits = static_cast<int>(r.svarint());
                break;
              case 8:
                p.unit_peer_hits = static_cast<int>(r.svarint());
                break;
              case 9:
                p.unit_invalidated = static_cast<int>(r.svarint());
                break;
              default:
                r.set_fail("unknown pass-record tag");
                return false;
            }
            if (r.failed()) return false;
          }
          c.timings.passes.push_back(std::move(p));
        }
        break;
      }
      case 10: c.stopped_early = r.boolean(); break;
      case 11: c.program_text = std::string(r.str()); break;
      case 12: c.print_dump = std::string(r.str()); break;
      case 13: c.peer_hit = r.boolean(); break;
      case 14: c.unit_hits = static_cast<size_t>(r.varint()); break;
      case 15: c.unit_misses = static_cast<size_t>(r.varint()); break;
      case 16: c.unit_invalidated = static_cast<size_t>(r.varint()); break;
      case 17: c.unit_disk_hits = static_cast<size_t>(r.varint()); break;
      case 18: c.unit_peer_hits = static_cast<size_t>(r.varint()); break;
      default:
        r.set_fail("unknown compile-result tag");
        return false;
    }
    if (r.failed()) return false;
  }
  *out = std::move(c);
  return true;
}

void enc_run_payload(std::string* out, const RunPayload& p) {
  field_bool(out, 1, p.ok);
  field_bool(out, 2, p.stopped);
  if (!p.stop_message.empty()) field_str(out, 3, p.stop_message);
  if (!p.error.empty()) field_str(out, 4, p.error);
  field_str(out, 5, p.output);
  field_varint(out, 6, p.statements);
  field_varint(out, 7, p.statements_parallel);
  field_varint(out, 8, p.instructions);
  field_double(out, 9, p.wall_ms);
  put_u8(out, kEnd);
}

bool dec_run_payload(BinReader& r, RunPayload* out) {
  RunPayload p;
  while (true) {
    unsigned char tag = r.u8();
    if (r.failed()) return false;
    if (tag == kEnd) break;
    switch (tag) {
      case 1: p.ok = r.boolean(); break;
      case 2: p.stopped = r.boolean(); break;
      case 3: p.stop_message = std::string(r.str()); break;
      case 4: p.error = std::string(r.str()); break;
      case 5: p.output = std::string(r.str()); break;
      case 6: p.statements = r.varint(); break;
      case 7: p.statements_parallel = r.varint(); break;
      case 8: p.instructions = r.varint(); break;
      case 9: p.wall_ms = r.dbl(); break;
      default:
        r.set_fail("unknown run-payload tag");
        return false;
    }
    if (r.failed()) return false;
  }
  *out = std::move(p);
  return true;
}

bool fail(std::string* err, BinReader& r, const char* fallback) {
  if (err) *err = r.failed() ? r.error() : fallback;
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Request

void encode_request_binary(const Request& r, std::string* out) {
  put_u8(out, kBinaryMagic);
  put_u8(out, kKindRequest);
  field_u8(out, 1, static_cast<unsigned char>(r.type));
  field_svarint(out, 2, r.id);
  field_svarint(out, 3, r.version);
  if (carries_compile_payload(r)) {
    if (!r.name.empty()) field_str(out, 4, r.name);
    field_str(out, 5, r.source);
    if (!r.annotations.empty()) field_str(out, 6, r.annotations);
    put_u8(out, 7);
    enc_pipeline_options(out, r.options);
    if (r.deadline_ms > 0) field_svarint(out, 9, r.deadline_ms);
  }
  if (carries_interp_options(r)) {
    put_u8(out, 8);
    enc_interp_options(out, r.interp);
  }
  switch (r.type) {
    case RequestType::Register:
      put_u8(out, 10);
      enc_worker_info(out, r.worker);
      break;
    case RequestType::Heartbeat:
      put_u8(out, 10);
      enc_worker_info(out, r.worker);
      put_u8(out, 11);
      enc_worker_load(out, r.load);
      if (r.leaving) field_bool(out, 12, true);
      break;
    case RequestType::CacheProbe:
      field_str(out, 13, r.key);
      break;
    case RequestType::CacheFill:
      field_str(out, 13, r.key);
      field_str(out, 14, r.payload);
      break;
    case RequestType::UnitProbe:
      field_str(out, 13, r.key);
      break;
    case RequestType::UnitFill:
      field_str(out, 13, r.key);
      field_str(out, 14, r.payload);
      field_str(out, 20, r.boundary);
      break;
    case RequestType::Forward:
      field_u8(out, 15, static_cast<unsigned char>(r.inner));
      field_svarint(out, 16, r.attempt);
      break;
    default:
      break;
  }
  // Trace context, emitted only when set.
  if (r.trace) field_bool(out, 18, true);
  if (r.trace_id) field_varint(out, 19, r.trace_id);
  put_u8(out, kEnd);
}

std::string encode_request_binary(const Request& r) {
  std::string out;
  encode_request_binary(r, &out);
  return out;
}

bool decode_request_binary(std::string_view payload, Request* out,
                           std::string* err) {
  BinReader r(payload);
  if (r.u8() != kBinaryMagic || r.u8() != kKindRequest || r.failed()) {
    if (err) *err = "not a binary request frame";
    return false;
  }
  Request q;
  while (true) {
    unsigned char tag = r.u8();
    if (r.failed()) return fail(err, r, "truncated request");
    if (tag == kEnd) break;
    switch (tag) {
      case 1: {
        unsigned char t = r.u8();
        if (t > static_cast<unsigned char>(RequestType::UnitFill)) {
          if (err) *err = "unknown request type";
          return false;
        }
        q.type = static_cast<RequestType>(t);
        break;
      }
      case 2: q.id = r.svarint(); break;
      case 3: q.version = static_cast<int>(r.svarint()); break;
      case 4: q.name = std::string(r.str()); break;
      case 5: q.source = std::string(r.str()); break;
      case 6: q.annotations = std::string(r.str()); break;
      case 7:
        if (!dec_pipeline_options(r, &q.options))
          return fail(err, r, "bad options");
        break;
      case 8:
        if (!dec_interp_options(r, &q.interp))
          return fail(err, r, "bad interp options");
        break;
      case 9: q.deadline_ms = r.svarint(); break;
      case 10:
        if (!dec_worker_info(r, &q.worker))
          return fail(err, r, "bad worker info");
        break;
      case 11:
        if (!dec_worker_load(r, &q.load))
          return fail(err, r, "bad worker load");
        break;
      case 12: q.leaving = r.boolean(); break;
      case 13: q.key = std::string(r.str()); break;
      case 14: q.payload = std::string(r.str()); break;
      case 15: {
        unsigned char t = r.u8();
        if (t > static_cast<unsigned char>(RequestType::UnitFill)) {
          if (err) *err = "unknown forward inner type";
          return false;
        }
        q.inner = static_cast<RequestType>(t);
        break;
      }
      case 16: q.attempt = static_cast<int>(r.svarint()); break;
      case 18: q.trace = r.boolean(); break;
      case 19: q.trace_id = r.varint(); break;
      case 20: q.boundary = std::string(r.str()); break;
      default:
        if (err) *err = "unknown request tag";
        return false;
    }
    if (r.failed()) return fail(err, r, "truncated request");
  }
  if (!r.at_end()) {
    if (err) *err = "trailing bytes after request";
    return false;
  }
  // Semantic validation. The version is deliberately NOT checked here:
  // the server answers a mismatched claim with a structured
  // `unsupported_version` (connection stays open), which requires the
  // decode itself to succeed.
  if (q.type == RequestType::Forward && q.inner != RequestType::Compile &&
      q.inner != RequestType::Run) {
    if (err) *err = "forward requires inner type compile or run";
    return false;
  }
  if ((q.type == RequestType::Register || q.type == RequestType::Heartbeat) &&
      q.worker.id.empty()) {
    if (err) *err = "worker id must be non-empty";
    return false;
  }
  if (q.type == RequestType::CacheProbe || q.type == RequestType::CacheFill) {
    uint64_t parsed;
    if (!parse_key(q.key, &parsed)) {
      if (err) *err = "cache_probe/cache_fill requires a hex \"key\"";
      return false;
    }
  }
  if (q.type == RequestType::UnitProbe || q.type == RequestType::UnitFill) {
    uint64_t parsed;
    if (!parse_key(q.key, &parsed)) {
      if (err) *err = "unit_probe/unit_fill requires a hex \"key\"";
      return false;
    }
  }
  *out = std::move(q);
  return true;
}

// ---------------------------------------------------------------------------
// Response

void encode_response_binary(const Response& r, std::string* out) {
  put_u8(out, kBinaryMagic);
  put_u8(out, kKindResponse);
  field_svarint(out, 1, r.id);
  field_u8(out, 2, static_cast<unsigned char>(r.status));
  if (!r.error.empty()) field_str(out, 3, r.error);
  if (r.has_result) {
    put_u8(out, 4);
    enc_compile_result(out, r.result);
  }
  if (r.has_run) {
    put_u8(out, 5);
    enc_run_payload(out, r.run);
  }
  // Metrics responses are rare (operator polls) and schemaless, so the
  // object travels as embedded JSON text rather than gaining TLV tags.
  if (r.metrics.is_object()) field_str(out, 6, r.metrics.dump());
  // Span trees follow the same reasoning (per traced request, rare).
  if (r.trace.is_object()) field_str(out, 12, r.trace.dump());
  if (r.has_hello) {
    put_u8(out, 7);
    enc_hello(out, r.hello);
  }
  if (r.found) field_bool(out, 8, true);
  if (!r.payload.empty()) field_str(out, 9, r.payload);
  if (r.has_peers) {
    put_u8(out, 10);
    put_varint(out, r.peers.size());
    for (const auto& p : r.peers) enc_worker_info(out, p);
  }
  put_u8(out, kEnd);
}

std::string encode_response_binary(const Response& r) {
  std::string out;
  encode_response_binary(r, &out);
  return out;
}

bool decode_response_binary(std::string_view payload, Response* out,
                            std::string* err) {
  BinReader r(payload);
  if (r.u8() != kBinaryMagic || r.u8() != kKindResponse || r.failed()) {
    if (err) *err = "not a binary response frame";
    return false;
  }
  Response q;
  while (true) {
    unsigned char tag = r.u8();
    if (r.failed()) return fail(err, r, "truncated response");
    if (tag == kEnd) break;
    switch (tag) {
      case 1: q.id = r.svarint(); break;
      case 2: {
        unsigned char s = r.u8();
        if (s > static_cast<unsigned char>(Status::ProtocolError)) {
          if (err) *err = "unknown response status";
          return false;
        }
        q.status = static_cast<Status>(s);
        break;
      }
      case 3: q.error = std::string(r.str()); break;
      case 4:
        q.has_result = true;
        if (!dec_compile_result(r, &q.result))
          return fail(err, r, "bad result");
        break;
      case 5:
        q.has_run = true;
        if (!dec_run_payload(r, &q.run)) return fail(err, r, "bad run");
        break;
      case 6: {
        std::string_view text = r.str();
        if (r.failed()) return fail(err, r, "bad metrics");
        std::string perr;
        std::optional<json::Value> parsed = json::parse(text, &perr);
        if (!parsed) {
          if (err) *err = "bad metrics JSON: " + perr;
          return false;
        }
        q.metrics = std::move(*parsed);
        break;
      }
      case 7:
        q.has_hello = true;
        if (!dec_hello(r, &q.hello)) return fail(err, r, "bad hello");
        break;
      case 8: q.found = r.boolean(); break;
      case 9: q.payload = std::string(r.str()); break;
      case 10: {
        q.has_peers = true;
        uint64_t n = r.varint();
        if (r.failed()) return fail(err, r, "bad peers");
        for (uint64_t i = 0; i < n; ++i) {
          WorkerInfo w;
          if (!dec_worker_info(r, &w)) return fail(err, r, "bad peer");
          q.peers.push_back(std::move(w));
        }
        break;
      }
      case 12: {
        std::string_view text = r.str();
        if (r.failed()) return fail(err, r, "bad trace");
        std::string perr;
        std::optional<json::Value> parsed = json::parse(text, &perr);
        if (!parsed) {
          if (err) *err = "bad trace JSON: " + perr;
          return false;
        }
        q.trace = std::move(*parsed);
        break;
      }
      default:
        if (err) *err = "unknown response tag";
        return false;
    }
    if (r.failed()) return fail(err, r, "truncated response");
  }
  if (!r.at_end()) {
    if (err) *err = "trailing bytes after response";
    return false;
  }
  *out = std::move(q);
  return true;
}

}  // namespace ap::net
