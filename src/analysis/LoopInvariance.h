//===- analysis/LoopInvariance.h - "Never exits once entered" loops ------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one static predicate for loops whose condition nothing in the loop
/// can change -- the shape SPE produces whenever it retargets a bounded
/// loop's counter update (`for (i = 0; i < 4; ++g) {}`), and the Patmos
/// "every loop has a maximum bound" discipline (SNIPPETS.md #1) inverted.
/// The reference interpreter consults it to exclude such variants in
/// microseconds instead of a whole step budget, and the skeleton reducer's
/// bounded-loop guard consults it to reject diverging ddmin probes before
/// they reach the oracle.
///
/// Soundness (the interpreter relies on it for exact Ok verdicts): the
/// predicate holds only when
///
///  * the condition reads nothing but named variables -- no call, no
///    store, no dereference, arrow access, or subscript through a
///    pointer-typed base (such reads see memory any alias can change);
///  * the body (and a for-loop's step) contains no break, return or goto
///    anywhere (inner loops included, conservatively) and no call;
///  * every store in the body has a statically known root object -- a
///    variable, peeled through array subscripts on array-typed bases and
///    `.` member accesses -- and that object is none of the condition's.
///    A plain self-assignment of a named variable (`v = v`) is no store:
///    it writes back the value the object already holds.
///
/// Variables are compared by VarDecl identity, so a body declaration that
/// shadows a condition variable stores to a different object. A store
/// through a non-pointer path can only touch its root object: the
/// interpreter bounds-checks every access against its allocation and
/// reports an escape as UB. Then one iteration leaves every byte the
/// condition reads unchanged, so a condition that held holds forever, and
/// the only ways out are undefined behavior or the step budget.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_ANALYSIS_LOOPINVARIANCE_H
#define SPE_ANALYSIS_LOOPINVARIANCE_H

namespace spe {

class Stmt;

/// \returns true when \p Loop (a WhileStmt, DoStmt or ForStmt of a
/// Sema-analyzed unit) provably never exits once its condition has held;
/// false for any other statement and whenever the loop is not provably
/// stuck. A missing condition (`for (;;)`) always holds. A literal-zero
/// condition is reported like any other: it never holds, so the caller
/// decides whether "never entered" counts as bounded.
bool loopNeverExits(const Stmt *Loop);

} // namespace spe

#endif // SPE_ANALYSIS_LOOPINVARIANCE_H
