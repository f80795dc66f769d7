// The binary TLV codec: the only wire encoding of protocol.h's messages.
//
// Every request and response type travels as a compact tag-value stream.
// The first payload byte is the magic 0xB4, so a payload that is not a
// binary message (a stray JSON document, say) is rejected before any
// field is read.
//
// Layout of one payload:
//
//   +------+------+----------------------------+
//   | 0xB4 | kind | fields ... | 0x00 end tag  |
//   +------+------+----------------------------+
//
// `kind` is 0x01 for requests, 0x02 for responses. Each field is one tag
// byte followed by a value whose wire form is fixed by the tag:
// unsigned LEB128 varints for counters and enums, zigzag varints for
// signed integers, length-prefixed bytes for strings, 8 little-endian
// bytes for doubles, a single byte for bools, and end-tag-terminated
// sub-streams (same tag-value form, closed by 0x00 — no length prefix,
// so encoding is single-pass) for nested messages. Unknown tags cannot
// be skipped (the type is not self-describing), so they are decode
// errors; both ends speak kProtocolVersion, so they never occur between
// matching peers.
//
// The equivalence contract, held by tests/net_test.cpp: for every
// message m, json(decode_binary(encode_binary(m))) is byte-identical to
// json(m), where json is the protocol.h rendering.
//
// Decoders never throw and never read out of bounds; any truncated,
// oversized, or malformed stream returns false with *err set, which the
// server maps to `protocol_error`.
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
