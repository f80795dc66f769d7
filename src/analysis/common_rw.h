// Per-unit read/write summary of COMMON block members: which names in
// each COMMON block a unit reads and which it writes.
//
// This is the cheap up-front syntactic summary that lets the incremental
// dependence graph (incr/depgraph.h) use DIRECTED COMMON edges — unit U
// depends on sharer V only when V writes a member U reads — instead of
// the bidirectional all-sharers rule that caps unit reuse at 1/|clique|
// on COMMON-heavy apps (DYFESM). The summary is deliberately
// conservative where by-reference semantics make the direction unknowable
// syntactically:
//
//   * assignment targets write their base array/scalar; their subscripts
//     read,
//   * every other expression occurrence reads,
//   * a member appearing anywhere in a CALL argument (or a tagged
//     region's argument hints) counts as both read and written — the
//     callee may do either through the reference,
//   * a DO induction variable counts as written.
//
// Membership is the unit's own COMMON declaration (sema resolves COMMON
// strictly per unit), so the summary needs nothing but the unit itself.
#pragma once

#include <map>
#include <set>
#include <string>

#include "fir/ast.h"

namespace ap::analysis {

struct CommonRW {
  // Block name -> member names this unit reads / writes.
  std::map<std::string, std::set<std::string>> reads;
  std::map<std::string, std::set<std::string>> writes;

  bool reads_member(const std::string& block, const std::string& name) const {
    auto it = reads.find(block);
    return it != reads.end() && it->second.count(name) > 0;
  }
  bool writes_member(const std::string& block, const std::string& name) const {
    auto it = writes.find(block);
    return it != writes.end() && it->second.count(name) > 0;
  }

  bool operator==(const CommonRW&) const = default;
};

CommonRW common_rw_summary(const fir::ProgramUnit& unit);

}  // namespace ap::analysis
