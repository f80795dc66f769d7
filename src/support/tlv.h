// One field list per serialized record, and the four codecs derived from
// it: the binary TLV writer, its bounds-checked reader, a JSON renderer
// and an FNV-1a hasher.
//
// A record declares its fields once, beside its struct:
//
//   template <class V>
//   void fields(V& v, WorkerInfo& w) {
//     v.field(1, "id", w.id);
//     v.field(2, "host", w.host);
//     v.field(3, "port", w.port);
//   }
//
// and every visitor below walks that list, so the encoder, the decoder,
// the rendering and the key hash cannot drift apart. The list takes the
// record by non-const reference because the reader fills it; the other
// visitors only read it.
//
// Field forms, each a tag byte (1..255) followed by the value:
//   bool               one byte, 0 or 1
//   signed integer     zigzag LEB128 varint
//   unsigned integer   LEB128 varint
//   enum               one byte; decoding rejects values past the last
//                      enumerator the list names: v.field(t, n, e, E::Last)
//   double             8 little-endian bytes
//   std::string        varint length, then the bytes
//   json::Value        its compact text as a string (schemaless payloads)
//   record             its own fields, closed by the end tag 0x00
//   vector / set       varint count, then each element's value
// The type is not self-describing, so an unknown tag is a decode error.
//
// Conditions: `if (v.when(cond)) v.field(...)`. The writer, renderer and
// hasher take the branch only when cond holds; the reader always takes
// it, so a decoder accepts every field of its message whatever the
// encoder's conditions. `v.optional(tag, name, has, value)` is a field
// written only when `has` holds, with `has` set by the reader when the
// field arrives.
//
// A top-level record travels behind a magic byte and a varint header (the
// message kind or the record's format version): see encode() / decode().
// decode() never throws, never reads out of bounds, and never allocates
// more than the input's own length could describe.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "support/fnv.h"
#include "support/json.h"

namespace ap::tlv {

// Closes every record (and every nested one).
inline constexpr unsigned char kEnd = 0x00;

template <class T>
struct is_list : std::false_type {};
template <class E>
struct is_list<std::vector<E>> : std::true_type {};
template <class E>
struct is_list<std::set<E>> : std::true_type {};

template <class T>
inline constexpr bool is_signed_int_v =
    std::is_integral_v<T> && std::is_signed_v<T> && !std::is_same_v<T, bool>;

// ---------------------------------------------------------------------------
// Writer: appends the binary encoding to a caller-owned buffer (callers
// reuse per-connection buffers, so the warm path does not allocate once
// capacity has grown).

class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  void u8(unsigned char b) { out_->push_back(static_cast<char>(b)); }
  void varint(uint64_t v) {
    while (v >= 0x80) {
      out_->push_back(static_cast<char>((v & 0x7f) | 0x80));
      v >>= 7;
    }
    out_->push_back(static_cast<char>(v));
  }
  // Zigzag: small magnitudes of either sign stay small on the wire.
  void svarint(int64_t v) {
    varint((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
  }
  void str(std::string_view s) {
    varint(s.size());
    out_->append(s.data(), s.size());
  }
  void dbl(double d) {
    uint64_t bits = std::bit_cast<uint64_t>(d);
    char buf[8];
    for (int i = 0; i < 8; ++i)
      buf[i] = static_cast<char>((bits >> (8 * i)) & 0xff);
    out_->append(buf, 8);
  }

  bool when(bool cond) const { return cond; }
  template <class T>
  void field(unsigned char tag, const char*, const T& x) {
    u8(tag);
    put(x);
  }
  template <class E>
  void field(unsigned char tag, const char*, const E& e, E) {
    u8(tag);
    u8(static_cast<unsigned char>(e));
  }
  template <class T>
  void optional(unsigned char tag, const char* name, bool has, const T& x) {
    if (has) field(tag, name, x);
  }

  template <class T>
  void put(const T& x) {
    if constexpr (std::is_same_v<T, bool>) u8(x ? 1 : 0);
    else if constexpr (is_signed_int_v<T>) svarint(x);
    else if constexpr (std::is_integral_v<T>) varint(x);
    else if constexpr (std::is_same_v<T, double>) dbl(x);
    else if constexpr (std::is_same_v<T, std::string>) str(x);
    else if constexpr (std::is_same_v<T, json::Value>) str(x.dump());
    else if constexpr (is_list<T>::value) {
      varint(x.size());
      for (const auto& e : x) put(e);
    } else {
      fields(*this, const_cast<T&>(x));
      u8(kEnd);
    }
  }

 private:
  std::string* out_;
};

// ---------------------------------------------------------------------------
// Reader: the bounds-checked decoder. Never throws, never reads past the
// end; the first failure latches and every later read returns a zero
// value, so callers check once at the end.
//
// A record is decoded by walking its field list once per pass: each field
// whose tag is the pending one reads its value and the next tag. The
// writer emits fields in list order, so one pass decodes a well-formed
// record; a later pass picks up out-of-order fields, and a pass that
// matches nothing means an unknown tag.

class Reader {
 public:
  explicit Reader(std::string_view data)
      : p_(data.data()), end_(data.data() + data.size()) {}

  bool failed() const { return fail_; }
  const std::string& error() const { return err_; }
  bool at_end() const { return p_ == end_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  uint64_t set_fail(std::string_view what) {
    if (!fail_) {
      fail_ = true;
      err_ = what;
    }
    return 0;
  }

  unsigned char u8() {
    if (fail_ || p_ == end_) return set_fail("truncated byte");
    return static_cast<unsigned char>(*p_++);
  }
  uint64_t varint() {
    if (fail_) return 0;
    uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      if (p_ == end_) return set_fail("truncated varint");
      unsigned char b = static_cast<unsigned char>(*p_++);
      if (shift >= 63 && b > 1) return set_fail("varint overflow");
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if (!(b & 0x80)) return v;
    }
  }
  int64_t svarint() {
    uint64_t z = varint();
    return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }
  // A view into the input; the length is checked against the bytes left
  // before anything is read or allocated.
  std::string_view str() {
    uint64_t n = varint();
    if (fail_) return {};
    if (n > remaining()) {
      set_fail("string length exceeds payload");
      return {};
    }
    std::string_view s(p_, static_cast<size_t>(n));
    p_ += n;
    return s;
  }
  double dbl() {
    if (fail_ || remaining() < 8) {
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

  bool when(bool) const { return true; }
  template <class T>
  void field(unsigned char tag, const char*, T& x) {
    if (!take(tag)) return;
    get(x);
    pending_ = u8();
  }
  template <class E>
  void field(unsigned char tag, const char*, E& e, E last) {
    if (!take(tag)) return;
    unsigned char b = u8();
    if (b > static_cast<unsigned char>(last))
      set_fail("enum value out of range");
    else
      e = static_cast<E>(b);
    pending_ = u8();
  }
  template <class T>
  void optional(unsigned char tag, const char* name, bool& has, T& x) {
    if (!fail_ && tag == pending_) has = true;
    field(tag, name, x);
  }

  template <class T>
  void get(T& x) {
    static_assert(!std::is_enum_v<T>, "an enum field names its last value");
    if constexpr (std::is_same_v<T, bool>) x = u8() != 0;
    else if constexpr (is_signed_int_v<T>) x = static_cast<T>(svarint());
    else if constexpr (std::is_integral_v<T>) x = static_cast<T>(varint());
    else if constexpr (std::is_same_v<T, double>) x = dbl();
    else if constexpr (std::is_same_v<T, std::string>) x.assign(str());
    else if constexpr (std::is_same_v<T, json::Value>) {
      std::string_view text = str();
      if (fail_) return;
      std::string perr;
      std::optional<json::Value> v = json::parse(text, &perr);
      if (!v) set_fail("bad embedded JSON: " + perr);
      else x = std::move(*v);
    } else if constexpr (is_list<T>::value) {
      // Every element takes at least one byte, so a count past the bytes
      // left is hostile; refusing it bounds the loop and the allocation.
      uint64_t n = varint();
      if (n > remaining()) set_fail("list count exceeds payload");
      for (uint64_t i = 0; i < n && !fail_; ++i) {
        typename T::value_type e{};
        get(e);
        x.insert(x.end(), std::move(e));
      }
    } else {
      pending_ = u8();
      while (!fail_ && pending_ != kEnd) {
        uint64_t before = taken_;
        fields(*this, x);
        if (taken_ == before) set_fail("unknown tag");
      }
    }
  }

 private:
  bool take(unsigned char tag) {
    if (fail_ || tag != pending_) return false;
    ++taken_;
    return true;
  }

  const char* p_;
  const char* end_;
  bool fail_ = false;
  std::string err_;
  unsigned char pending_ = kEnd;  // the tag read but not yet decoded
  uint64_t taken_ = 0;            // fields decoded so far, at any depth
};

// ---------------------------------------------------------------------------
// JsonRenderer: a record as a JSON object, keys in list order, enums as
// their numeric value. The readable form of a message, and the reference
// the codec's round-trip tests compare against.

class JsonRenderer {
 public:
  bool when(bool cond) const { return cond; }
  template <class T>
  void field(unsigned char, const char* name, const T& x) {
    out_.set(name, render(x));
  }
  template <class E>
  void field(unsigned char, const char* name, const E& e, E) {
    out_.set(name, static_cast<int64_t>(e));
  }
  template <class T>
  void optional(unsigned char tag, const char* name, bool has, const T& x) {
    if (has) field(tag, name, x);
  }

  template <class T>
  static json::Value render(const T& x) {
    if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, double> ||
                  std::is_same_v<T, std::string> ||
                  std::is_same_v<T, json::Value>)
      return json::Value(x);
    else if constexpr (std::is_integral_v<T>)
      return json::Value(static_cast<int64_t>(x));
    else if constexpr (is_list<T>::value) {
      json::Value a = json::Value::array();
      for (const auto& e : x) a.push(render(e));
      return a;
    } else {
      JsonRenderer r;
      fields(r, const_cast<T&>(x));
      return std::move(r.out_);
    }
  }

 private:
  json::Value out_ = json::Value::object();
};

// ---------------------------------------------------------------------------
// Hasher: folds every field the writer would emit, tag included, into an
// FNV-1a hash, with no intermediate buffer (cache keys are computed per
// request on the server's event loop).

class Hasher {
 public:
  explicit Hasher(uint64_t h) : h_(h) {}
  uint64_t value() const { return h_; }

  bool when(bool cond) const { return cond; }
  template <class T>
  void field(unsigned char tag, const char*, const T& x) {
    h_ = fnv_u64(h_, tag);
    fold(x);
  }
  template <class E>
  void field(unsigned char tag, const char*, const E& e, E) {
    h_ = fnv_u64(h_, tag);
    h_ = fnv_u64(h_, static_cast<uint64_t>(e));
  }
  template <class T>
  void optional(unsigned char tag, const char* name, bool has, const T& x) {
    if (has) field(tag, name, x);
  }

  template <class T>
  void fold(const T& x) {
    if constexpr (std::is_integral_v<T>)
      h_ = fnv_u64(h_, static_cast<uint64_t>(x));
    else if constexpr (std::is_same_v<T, double>)
      h_ = fnv_u64(h_, std::bit_cast<uint64_t>(x));
    else if constexpr (std::is_same_v<T, std::string>) {
      h_ = fnv_u64(h_, x.size());
      h_ = fnv1a(h_, x);
    } else if constexpr (std::is_same_v<T, json::Value>)
      fold(x.dump());
    else if constexpr (is_list<T>::value) {
      h_ = fnv_u64(h_, x.size());
      for (const auto& e : x) fold(e);
    } else {
      fields(*this, const_cast<T&>(x));
      h_ = fnv_u64(h_, kEnd);
    }
  }

 private:
  uint64_t h_;
};

// ---------------------------------------------------------------------------
// Entry points

// Appends magic, header and the record to *out.
template <class T>
void encode(unsigned char magic, uint64_t header, const T& x,
            std::string* out) {
  Writer w(out);
  w.u8(magic);
  w.varint(header);
  w.put(x);
}

// Strict decode of exactly one record into `x`, a default-constructed
// record: false, with *err set when given, on a wrong magic or header, a
// malformed or truncated field, an unknown tag or trailing bytes. On
// failure `x` holds a partial decode; callers discard it.
template <class T>
bool decode(std::string_view in, unsigned char magic, uint64_t header, T& x,
            std::string* err) {
  Reader r(in);
  if (r.u8() != magic || r.varint() != header || r.failed()) {
    if (err) *err = "wrong magic byte or header";
    return false;
  }
  r.get(x);
  if (!r.failed() && !r.at_end()) r.set_fail("trailing bytes");
  if (r.failed() && err) *err = r.error();
  return !r.failed();
}

template <class T>
json::Value to_json(const T& x) {
  return JsonRenderer::render(x);
}

template <class T>
uint64_t hash(uint64_t h, const T& x) {
  Hasher hs(h);
  hs.fold(x);
  return hs.value();
}

}  // namespace ap::tlv
