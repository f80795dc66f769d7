#include "net/binproto.h"

#include "support/tlv.h"

namespace ap::net {

namespace {

// First byte of every payload.
constexpr unsigned char kBinaryMagic = 0xB4;

// Message kind (the header after the magic).
constexpr uint64_t kKindRequest = 0x01;
constexpr uint64_t kKindResponse = 0x02;

bool reject(std::string* err, const char* why) {
  if (err) *err = why;
  return false;
}

}  // namespace

void encode_request_binary(const Request& r, std::string* out) {
  tlv::encode(kBinaryMagic, kKindRequest, r, out);
}

std::string encode_request_binary(const Request& r) {
  std::string out;
  encode_request_binary(r, &out);
  return out;
}

bool decode_request_binary(std::string_view payload, Request* out,
                           std::string* err) {
  Request q;
  if (!tlv::decode(payload, kBinaryMagic, kKindRequest, q, err)) return false;
  // Semantic validation. The version is deliberately NOT checked here:
  // the server answers a mismatched claim with a structured
  // `unsupported_version` (connection stays open), which requires the
  // decode itself to succeed.
  if (q.type == RequestType::Forward && q.inner != RequestType::Compile &&
      q.inner != RequestType::Run)
    return reject(err, "forward requires inner type compile or run");
  if ((q.type == RequestType::Register || q.type == RequestType::Heartbeat) &&
      q.worker.id.empty())
    return reject(err, "worker id must be non-empty");
  uint64_t key;
  if ((q.type == RequestType::CacheProbe || q.type == RequestType::CacheFill) &&
      !parse_key(q.key, &key))
    return reject(err, "cache_probe/cache_fill requires a hex \"key\"");
  if ((q.type == RequestType::UnitProbe || q.type == RequestType::UnitFill) &&
      !parse_key(q.key, &key))
    return reject(err, "unit_probe/unit_fill requires a hex \"key\"");
  if (q.interp.num_threads < 1) q.interp.num_threads = 1;
  *out = std::move(q);
  return true;
}

void encode_response_binary(const Response& r, std::string* out) {
  tlv::encode(kBinaryMagic, kKindResponse, r, out);
}

std::string encode_response_binary(const Response& r) {
  std::string out;
  encode_response_binary(r, &out);
  return out;
}

bool decode_response_binary(std::string_view payload, Response* out,
                            std::string* err) {
  Response q;
  if (!tlv::decode(payload, kBinaryMagic, kKindResponse, q, err)) return false;
  *out = std::move(q);
  return true;
}

}  // namespace ap::net
