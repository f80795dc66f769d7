#include "net/protocol.h"

#include <cstdio>

namespace ap::net {

const char* request_type_name(RequestType t) {
  switch (t) {
    case RequestType::Compile: return "compile";
    case RequestType::Run: return "run";
    case RequestType::Metrics: return "metrics";
    case RequestType::Ping: return "ping";
    case RequestType::Hello: return "hello";
    case RequestType::Register: return "register";
    case RequestType::Heartbeat: return "heartbeat";
    case RequestType::CacheProbe: return "cache_probe";
    case RequestType::CacheFill: return "cache_fill";
    case RequestType::Forward: return "forward";
    case RequestType::Stats: return "stats";
    case RequestType::UnitProbe: return "unit_probe";
    case RequestType::UnitFill: return "unit_fill";
  }
  return "?";
}

const char* status_name(Status s) {
  switch (s) {
    case Status::Ok: return "ok";
    case Status::Error: return "error";
    case Status::Overloaded: return "overloaded";
    case Status::DeadlineExceeded: return "deadline_exceeded";
    case Status::UnsupportedVersion: return "unsupported_version";
    case Status::WorkerLost: return "worker_lost";
    case Status::ProtocolError: return "protocol_error";
  }
  return "?";
}

std::string format_key(uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

bool parse_key(std::string_view hex, uint64_t* out) {
  if (hex.empty() || hex.size() > 16) return false;
  uint64_t v = 0;
  for (char c : hex) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else return false;
    v = (v << 4) | static_cast<uint64_t>(digit);
  }
  *out = v;
  return true;
}

}  // namespace ap::net
