// The benchmark's seeded generator for the edit_loop workload: a Fortran
// program of 12 modules x 11 subroutines plus a main program (133 units,
// 11x DYFESM's 12), with COMMON blocks and a call DAG, and a stream of
// one-unit edits to it.
//
// Shape is fixed so cost does not depend on the seed: every module has a
// root that calls three mid-level routines, each calling three of the
// module's seven leaves; every module owns one COMMON block that its
// units read and write, and the main program initializes every block and
// calls every module root. The seed picks the loop kinds, subscripts,
// which block members each unit touches, the call edges within a module
// and each unit's coefficient literal.
//
// An edit rewrites one unit's coefficient to a value never used before in
// the run, so every edited source is new to the request cache while all
// other units keep their text.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

class EditProgram {
 public:
  explicit EditProgram(uint64_t seed);

  size_t units() const { return units_.size(); }
  const std::string& unit_name(size_t u) const { return names_[u]; }

  // The program with every unit at its base coefficient.
  std::string base_source() const;
  // The program with unit `u`'s coefficient replaced by `literal`.
  std::string edited_source(size_t u, const std::string& literal) const;

 private:
  std::string render(size_t edited, const std::string& literal) const;

  // Unit text split around its single coefficient literal.
  struct Unit {
    std::string head, tail, coeff;
  };
  std::vector<Unit> units_;
  std::vector<std::string> names_;
};

// A Fortran double literal no earlier edit of this run used.
std::string fresh_literal(Rng& rng, uint64_t sequence);

}  // namespace perfbench
