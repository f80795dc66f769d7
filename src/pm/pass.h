// The pass manager: the pipeline as a declarative sequence of named passes.
//
// A Pass is either WholeProgram (one run() over the whole state) or PerUnit
// (begin → run_unit per ProgramUnit → end). Per-unit passes fan out onto an
// ap::ThreadPool when one is supplied: each unit runs with a private
// DiagnosticEngine, and the manager merges the buffers back into the shared
// engine in unit-index order — output is bit-identical to a sequential run
// regardless of lane count or completion order.
//
// After every pass (when verification is on) the manager runs the AST
// verifier (pm/verify.h) plus the pass's own verify_after hook. Passes
// evolve the verifier's strictness via adjust_verify as the program moves
// through legal phases (inlining legalizes duplicate origin_ids, annotation
// inlining opens the tagged-region window, reverse inlining closes it).
//
// The manager records one PassRecord per executed pass — name, wall ms,
// units fanned out, diagnostics added — which the driver exposes as
// PipelineTimings and the service forwards into telemetry, the cache and
// the wire protocol. --stop-after/--print-after map to PassManagerOptions.
//
// Artifact protocol: a PerUnit pass that overrides the snapshot hooks
// participates in pass-boundary snapshotting. Before running a unit
// through such a pass the manager probes the attached ArtifactStore under
// (pass name, pass-sequence prefix fingerprint, unit name); an artifact
// the pass successfully restores skips the unit's run entirely, and a
// recomputed unit is snapshotted back into the store. Artifacts are live,
// immutable objects shared by pointer — bytes exist only where a store
// crosses a process edge. The store owns key construction and tiering
// (memory/disk/fleet peers — src/incr implements it); the manager owns
// the per-boundary hit/miss counters in PassRecord. A restore that fails
// falls back to recomputing — correctness never rests on the protocol.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "fir/ast.h"
#include "pm/verify.h"
#include "support/diagnostics.h"
#include "support/thread_pool.h"

namespace ap::pm {

enum class PassKind : uint8_t { WholeProgram, PerUnit };

// Which artifact tier served a restored unit; None = miss.
enum class ArtifactTier : uint8_t { None, Memory, Disk, Peer };

// One unit's snapshot at a pass boundary. Immutable once stored, so one
// object can serve every later request; its concrete type belongs to the
// pass that made it, which restores only what it recognizes.
struct Artifact {
  virtual ~Artifact() = default;
};
using ArtifactPtr = std::shared_ptr<const Artifact>;

// One artifact probe's outcome: whether this (pass, unit) is enrolled in
// the protocol at all, the artifact when one was found (null otherwise),
// the tier that served it, and the miss classification (own unit
// unchanged, dependency changed) that feeds invalidation telemetry.
struct ArtifactProbe {
  bool participating = false;
  bool invalidated = false;
  ArtifactTier tier = ArtifactTier::None;
  ArtifactPtr payload;
};

// Pass-boundary artifact store: per-unit artifacts addressed by
// (pass name, pass-sequence prefix fingerprint, unit name). The store
// decides participation (a pass can be enrolled for some runs and not
// others), computes real cache keys (content closures, option hashes) and
// owns tiering; src/incr provides the production implementation.
class ArtifactStore {
 public:
  virtual ~ArtifactStore() = default;
  virtual ArtifactProbe find_unit(std::string_view pass_name,
                                  uint64_t prefix_fp,
                                  const std::string& unit_name) = 0;
  virtual void store_unit(std::string_view pass_name, uint64_t prefix_fp,
                          const std::string& unit_name,
                          ArtifactPtr payload) = 0;
};

// One executed pass, in execution order.
struct PassRecord {
  std::string name;
  double wall_ms = 0;
  int units = 0;        // units fanned out (0 for whole-program passes)
  int diagnostics = 0;  // diagnostics this pass added to the shared engine
  // Artifact-protocol outcome at this boundary (all zero when the pass
  // does not snapshot or no store is attached). unit_hits counts restores
  // from any tier; disk/peer break the tier down (memory = hits - disk -
  // peer); unit_misses counts enrolled units that recomputed.
  int unit_hits = 0;
  int unit_misses = 0;
  int unit_disk_hits = 0;
  int unit_peer_hits = 0;
  int unit_invalidated = 0;  // misses caused by a changed dependency
};

// The serialized fields (support/tlv.h). The artifact counters travel only
// for a pass that snapshotted.
template <class V>
void fields(V& v, PassRecord& p) {
  v.field(1, "name", p.name);
  v.field(2, "wall_ms", p.wall_ms);
  v.field(3, "units", p.units);
  v.field(4, "diags", p.diagnostics);
  if (v.when(p.unit_hits + p.unit_misses > 0)) {
    v.field(5, "unit_hits", p.unit_hits);
    v.field(6, "unit_misses", p.unit_misses);
    v.field(7, "unit_disk_hits", p.unit_disk_hits);
    v.field(8, "unit_peer_hits", p.unit_peer_hits);
    v.field(9, "unit_invalidated", p.unit_invalidated);
  }
}

// Mutable state threaded through the sequence. The program starts null; a
// parse-like first pass populates it.
struct PassState {
  std::unique_ptr<fir::Program> program;
  DiagnosticEngine* diags = nullptr;

  // Set by a pass to abort the sequence (e.g. parse errors). The manager
  // stops immediately; `error` becomes the manager's error.
  bool failed = false;
  std::string error;

  void fail(std::string err) {
    failed = true;
    error = std::move(err);
  }
};

class Pass {
 public:
  virtual ~Pass() = default;

  virtual std::string_view name() const = 0;
  virtual PassKind kind() const { return PassKind::WholeProgram; }

  // WholeProgram passes implement run().
  virtual void run(PassState&) {}

  // PerUnit passes implement begin / run_unit / end. run_unit may be called
  // concurrently (one call per unit, any order, no two calls for the same
  // unit); everything it touches must be confined to its unit, its slot in
  // pass-owned per-unit storage, and the private DiagnosticEngine handed in
  // (pre-seeded with the shared engine's stream name, merged back in unit
  // order). begin/end run on the caller and may touch PassState freely.
  virtual void begin(PassState&) {}
  virtual void run_unit(fir::ProgramUnit&, size_t /*unit_index*/,
                        DiagnosticEngine&) {}
  virtual void end(PassState&) {}

  // Artifact protocol (PerUnit passes only; see header comment). A pass
  // opting in returns true from snapshotable(); the manager then probes
  // the attached ArtifactStore per unit before run_unit. snapshot must be
  // safe to call concurrently under the same confinement rules as
  // run_unit (null = nothing to store); restore returns false when the
  // artifact does not apply (the unit is left untouched and recomputed).
  virtual bool snapshotable() const { return false; }
  virtual ArtifactPtr snapshot_unit_artifact(const fir::ProgramUnit&,
                                             size_t /*unit_index*/) {
    return nullptr;
  }
  virtual bool restore_unit_artifact(fir::ProgramUnit&, size_t /*unit_index*/,
                                     const Artifact&) {
    return false;
  }

  // Pass-specific invariant check, run after the structural verifier.
  // Returns "" when fine, else a description of the violation.
  virtual std::string verify_after(const fir::Program&) { return {}; }

  // Evolve the verifier options for this pass's post-check and every later
  // pass (called before verifying this pass's output).
  virtual void adjust_verify(VerifyOptions&) {}
};

struct PassManagerOptions {
  // Lanes for PerUnit passes; null or a 1-lane pool means sequential.
  ThreadPool* pool = nullptr;
  // Run the verifier after every pass.
  bool verify = false;
  // Stop the sequence after the named pass (it still runs and verifies).
  std::string stop_after;
  // Capture fir::unparse of the program after the named pass.
  std::string print_after;
  // Pass-boundary artifact store (not owned; null disables the protocol).
  ArtifactStore* artifacts = nullptr;
};

class PassManager {
 public:
  explicit PassManager(PassManagerOptions opts) : opts_(std::move(opts)) {}

  void add(std::unique_ptr<Pass> p) { passes_.push_back(std::move(p)); }
  bool has_pass(std::string_view name) const;

  // Runs the sequence over `st`. Returns false when a pass failed or a
  // verifier rejected its output; see error(). Records are populated for
  // every pass that ran, even on failure.
  bool run(PassState& st);

  const std::vector<PassRecord>& records() const { return records_; }
  const std::string& error() const { return error_; }
  // True when stop_after cut the sequence short.
  bool stopped_early() const { return stopped_early_; }
  // Unparsed program captured by print_after ("" when unset).
  const std::string& print_dump() const { return print_dump_; }

 private:
  bool run_one(Pass& pass, PassState& st);

  PassManagerOptions opts_;
  std::vector<std::unique_ptr<Pass>> passes_;
  std::vector<PassRecord> records_;
  // FNV fingerprint of the names of the passes executed SO FAR — the
  // "prefix" in artifact keys. A pass's probe sees the fingerprint of the
  // sequence before it; the pass's own name is folded after it runs.
  uint64_t seq_fp_ = 0;
  VerifyOptions vopts_;
  std::string error_;
  std::string print_dump_;
  bool stopped_early_ = false;
};

}  // namespace ap::pm
