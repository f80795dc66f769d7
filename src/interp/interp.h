// Tree-walking interpreter for the F77 subset with OpenMP execution.
//
// This is the substitute for the paper's gfortran/ifort + multicore testbed
// (DESIGN.md §2): it executes the final, reverse-inlined program — original
// calls restored, OpenMP metadata on parallelized DO loops — either
// serially or with a work-sharing thread pool, which is what bench_fig20
// measures speedups on.
//
// OpenMP semantics implemented: PARALLEL DO with contiguous chunking,
// PRIVATE (copy-in at region entry, last-iteration copy-out so sequential
// final values are preserved — the paper's Polaris peels the last iteration
// for the same effect, §III.B.4), and REDUCTION(+,*,MIN,MAX). Privatized
// COMMON variables are redirected through a per-thread override table so
// subroutines CALLed inside the parallel loop see the thread's private copy
// (the runtime analogue of THREADPRIVATE, required because privatized
// temporaries like XY live in COMMON and are touched only inside callees).
//
// Nested parallel loops execute serially inside an active region (the
// default OpenMP behaviour on the paper's machines).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "fir/ast.h"
#include "interp/storage.h"

namespace ap::interp {

namespace bc {
struct Module;
}

// Execution engine selection. Bytecode (the default) compiles the program
// to a slot-resolved register IR at Interpreter construction and runs it on
// the VM in vm.h; Tree is the original AST walker, kept as the reference
// implementation (the two are differentially tested against each other).
enum class Engine : uint8_t { Tree, Bytecode };

struct InterpOptions {
  int num_threads = 1;
  bool enable_parallel = true;   // false: ignore OMP metadata entirely
  int64_t max_steps = 2'000'000'000;  // runaway-loop guard (per program run)
  bool check_bounds = true;
  Engine engine = Engine::Bytecode;
};

// The serialized fields (support/tlv.h).
template <class V>
void fields(V& v, InterpOptions& o) {
  v.field(1, "engine", o.engine, Engine::Bytecode);
  v.field(2, "threads", o.num_threads);
  v.field(3, "enable_parallel", o.enable_parallel);
  v.field(4, "max_steps", o.max_steps);
  v.field(5, "check_bounds", o.check_bounds);
}

struct RunResult {
  bool ok = false;
  bool stopped = false;        // program executed STOP
  std::string stop_message;
  std::string error;           // runtime error description when !ok
  std::string output;          // accumulated WRITE output
  uint64_t statements_executed = 0;
  // Statements executed inside OMP-parallel regions (by all threads). The
  // ratio to statements_executed is a machine-independent "parallel
  // coverage" metric used by bench_fig20 alongside wall-clock speedup —
  // wall-clock scaling needs physical cores, coverage does not.
  uint64_t statements_in_parallel = 0;
  // Bytecode engine only: instructions dispatched by the VM and the
  // AST-to-bytecode compile time. Both stay 0 under Engine::Tree, and
  // neither participates in engine differential comparisons.
  uint64_t instructions_executed = 0;
  double bytecode_compile_ms = 0.0;
};

class Interpreter {
 public:
  Interpreter(const fir::Program& prog, InterpOptions opts);
  ~Interpreter();

  RunResult run();

  GlobalStore& globals() { return *globals_; }
  const GlobalStore& globals() const { return *globals_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;        // tree-walking engine
  std::unique_ptr<bc::Module> module_;  // bytecode engine
  double compile_ms_ = 0.0;
  InterpOptions opts_;
  std::unique_ptr<GlobalStore> globals_;
};

}  // namespace ap::interp
