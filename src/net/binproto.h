// The binary TLV codec: the only wire encoding of protocol.h's messages.
//
// Layout of one payload:
//
//   +------+------+----------------------------+
//   | 0xB4 | kind | fields ... | 0x00 end tag  |
//   +------+------+----------------------------+
//
// The magic 0xB4 rejects a payload that is not a binary message (a stray
// JSON document, say) before any field is read; `kind` is 0x01 for
// requests, 0x02 for responses. The fields are the Request or Response
// field list of protocol.h, in the tag-value forms of support/tlv.h
// (varints, zigzag varints, length-prefixed bytes, 8-byte doubles, one
// byte bools and enums, end-tag-terminated submessages). Both ends speak
// kProtocolVersion, so an unknown tag is a decode error.
//
// The equivalence contract, held by tests/net_test.cpp: for every message
// m, tlv::to_json(decode(encode(m))) is byte-identical to tlv::to_json(m).
// Both sides walk the same field list, so it holds by construction unless
// a field's value form loses information.
//
// Decoders never throw and never read out of bounds; any truncated,
// oversized, or malformed stream returns false with *err set, which the
// server maps to `protocol_error`. After the field decode, the request
// decoder applies the checks a field list cannot state: a forward wraps
// only compile or run, fleet identities are non-empty, cache and unit
// keys are hex, and an interpreter thread count below 1 becomes 1.
#pragma once

#include <string>
#include <string_view>

#include "net/protocol.h"

namespace ap::net {

// Append the binary encoding of the message to *out (existing contents
// are preserved — callers reuse per-connection scratch buffers so the
// warm path does not allocate per frame once capacity has grown).
void encode_request_binary(const Request& r, std::string* out);
void encode_response_binary(const Response& r, std::string* out);

// Convenience forms returning a fresh buffer.
std::string encode_request_binary(const Request& r);
std::string encode_response_binary(const Response& r);

// Strict decoders. False with *err on any malformed input (bad magic,
// bad kind, unknown tag, truncated value, trailing bytes).
bool decode_request_binary(std::string_view payload, Request* out,
                           std::string* err);
bool decode_response_binary(std::string_view payload, Response* out,
                            std::string* err);

}  // namespace ap::net
