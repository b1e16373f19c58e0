//===- support/StateRepeat.h - Brent cycle detection for executors -------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact detection of runs whose state repeats, shared by the reference
/// interpreter and the MiniCC VM (DESIGN.md §17.5). Both are deterministic:
/// once a function invocation reaches the same check point (a loop trip or
/// a resumed goto; a branch target in the VM) with the same full state, it
/// repeats the stretch in between forever, printing nothing, so the run
/// can only end as a Timeout once its step budget runs out. Detecting the
/// repeat early ends it with exactly that outcome -- Timeout, exit code 0,
/// the output so far -- at a fraction of the cost.
///
/// The executor owns the state: it keeps one StateRepeat per invocation and
/// hands visit() a full-state comparison and a copy routine. A match is
/// always confirmed by comparing the whole state, never by a hash. Brent's
/// schedule saves the state at doubling intervals (counted check points 1,
/// 3, 7, 15, ...) and compares every counted check point with the latest
/// saved one, so a cycle of length L entered after P counted check points
/// is found within about 2 * max(L, P) more, with one saved state alive at
/// a time. A check point reached after an allocation is not counted.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_SUPPORT_STATEREPEAT_H
#define SPE_SUPPORT_STATEREPEAT_H

#include <cstddef>
#include <cstdint>

namespace spe {

/// Steps an invocation runs (its callees included) before its executor
/// starts looking for repeated states in it: terminating variants, and
/// short calls inside a long run, finish below it and pay nothing.
inline constexpr uint64_t StateRepeatArmSteps = uint64_t(1) << 14;

/// Brent cycle detection over one function invocation's check points.
/// \p Snapshot is the executor's copy of its full state.
template <typename Snapshot> class StateRepeat {
public:
  /// \p EntrySteps is the executor's step count when the invocation began.
  explicit StateRepeat(uint64_t EntrySteps = 0)
      : ArmAt(EntrySteps + StateRepeatArmSteps) {}

  /// Visits one check point, at step count \p Steps. \p BlockCount is the
  /// executor's allocation count (allocations only ever append).
  /// \p Same(const Snapshot &) compares the current full state with a
  /// saved one; \p Save(Snapshot &) copies the current state. \returns true
  /// when the state repeats one this invocation reached earlier.
  template <typename SameFn, typename SaveFn>
  bool visit(uint64_t Steps, size_t BlockCount, SameFn &&Same,
             SaveFn &&Save) {
    if (Steps < ArmAt)
      return false;
    // Something was allocated since the previous check point. A cycle
    // never allocates, so the stretch that led here is on none: the check
    // point is not counted. This also keeps loops that grow the block
    // table from paying for snapshots.
    bool Allocated = BlockCount != LastBlockCount;
    LastBlockCount = BlockCount;
    if (Allocated)
      return false;
    if (HasSaved && Same(Saved))
      return true;
    if (++Lambda == Power) {
      Save(Saved);
      HasSaved = true;
      Power *= 2;
      Lambda = 0;
    }
    return false;
  }

private:
  uint64_t ArmAt;
  size_t LastBlockCount = 0; ///< Never 0 at a check: block 0 is null.
  uint64_t Power = 1;
  uint64_t Lambda = 0;
  bool HasSaved = false;
  Snapshot Saved;
};

} // namespace spe

#endif // SPE_SUPPORT_STATEREPEAT_H
