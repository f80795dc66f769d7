// Exact serializer for one fir::ProgramUnit. Only the benchmark's
// incr.snapshot_* probe and this module's tests call it.
//
// It walks the AST and restores every semantic field bit-for-bit —
// statement and expression kinds, literals (doubles as hexfloat),
// declarations, COMMON blocks, OMP metadata, origin/tag ids and source
// locations — where an unparse + reparse round trip would renumber
// origin_ids, lose locations and reject mid-pipeline constructs.
//
// deserialize_unit returns nullopt on any malformed input (truncated
// stream, unknown kind byte, trailing garbage).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "fir/ast.h"

namespace ap::incr {

std::string serialize_unit(const fir::ProgramUnit& unit);
std::optional<std::unique_ptr<fir::ProgramUnit>> deserialize_unit(
    std::string_view text);

}  // namespace ap::incr
