// Per-unit front-end fingerprints for the incremental compilation cache.
//
// The source is lexed (not parsed) and the token stream split at unit
// headers (`PROGRAM`/`SUBROUTINE` at statement start, with a preceding
// `$LIBRARY` directive folded into the unit it marks). Each unit's
// fingerprint is an FNV-1a hash over its tokens — kind, spelling, literal
// values — so editing one subroutine changes exactly one fingerprint, and
// whitespace/comment-only edits change none (the lexer drops both).
//
// Annotation entries (`subroutine NAME { ... }` in the annotation DSL) are
// split the same way and folded into the fingerprint of the source unit
// they annotate; entries naming no source unit fold into a global salt
// applied to every unit (conservative: an orphan annotation edit
// invalidates everything).
//
// The split is validated downstream against the real parse (incr/plan.h):
// if the token-level unit names do not match the parsed unit names the
// plan is unusable and the pipeline simply compiles everything — the
// splitter is an accelerator, never a soundness assumption.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fir/lexer.h"

namespace ap::incr {

struct UnitFingerprint {
  std::string name;  // upper-cased unit name from the header token
  uint64_t fp = 0;   // token-stream hash (annotation + global salt folded in)
};

struct SourceFingerprints {
  bool ok = false;  // false: lexing failed or no unit header found
  std::vector<UnitFingerprint> units;  // in source order
};

// Fingerprint every unit of `source`, folding `annotations` entries into
// the units they name.
SourceFingerprints fingerprint_units(std::string_view source,
                                     std::string_view annotations);

// The same over `source`'s error-free token stream, for a caller that
// parses from those tokens too (the pipeline's parse pass).
SourceFingerprints fingerprint_units(const std::vector<fir::Token>& source_toks,
                                     std::string_view annotations);

// The unit names of `source` in source order (token-level split; empty on
// lex failure). Shared by the edit-loop tooling to pick a unit to mutate.
std::vector<std::string> source_unit_names(std::string_view source);

// Returns `source` with a no-op statement (`IEDITn = n`, n = salt) inserted
// before the END line of `unit_name` — a deterministic "developer edited
// this subroutine" mutation for tests, benches, and `apclient --edit-loop`.
// Returns the input unchanged when the unit or its END is not found.
std::string mutate_unit(std::string_view source, std::string_view unit_name,
                        int salt);

}  // namespace ap::incr
