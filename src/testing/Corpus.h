//===- testing/Corpus.h - c-torture-like test corpus ---------------------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The test-program corpus. The paper enumerates skeletons derived from
/// GCC-4.8.5's c-torture suite (~21K files averaging 7.34 holes, 2.77
/// scopes, 1.85 functions, 1.38 types, and 3.46 candidate variables per
/// hole -- Table 2). That suite cannot be shipped, so this module provides
/// (a) a deterministic generator calibrated to those shape statistics and
/// (b) a set of embedded handwritten seeds adapted from the paper's figures
/// (aliasing, identical-operand folding, goto loops) whose skeletons reach
/// the injected bugs' trigger patterns under enumeration.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_TESTING_CORPUS_H
#define SPE_TESTING_CORPUS_H

#include <cstdint>
#include <string>
#include <vector>

namespace spe {

/// Generator knobs (defaults calibrated against Table 2).
struct CorpusOptions {
  double HelperFunctionProb = 0.45;
  double PointerProb = 0.30;
  double ArrayProb = 0.20;
  double StructProb = 0.15;
  double GotoProb = 0.15;
  double ExtraTypeProb = 0.30;
  /// Probability of declaring one *uninitialized* scalar local that the
  /// seed itself never touches, plus a couple of expression-initialized
  /// locals after it (c-torture style `int z;` declarations). The seed
  /// stays UB-free, but enumeration variants that retarget a read onto the
  /// uninitialized local are rejected by the oracle -- exactly the
  /// read-before-write pattern the def-before-use pruning layer
  /// (skeleton/ValidityAnalysis.h) proves invalid without execution.
  /// Default 0 preserves the historical program stream bit for bit.
  double UninitLocalProb = 0.0;
  /// Probability of appending one extra Patmos-style bounded loop to
  /// main's top level: a dedicated counter local, a literal trip bound,
  /// and the counter update pinned to the bottom of the body, emitted as
  /// `while` or `do`/`while` (the only corpus source of do-loops). The
  /// seed always terminates at compile-time-bounded trip counts; variants
  /// that retarget the counter update may diverge and are excluded by the
  /// oracle as Timeout. Reads placed *after* the loop are exactly what
  /// the CFG-based def-before-use layer can prove about loop programs and
  /// the straight-line-prefix analysis could not. Default 0 preserves the
  /// historical stream bit for bit (same guard idiom as UninitLocalProb).
  double BoundedLoopProb = 0.0;
  /// Probability of upgrading the helper function to a "rich" body: an
  /// uninitialized scalar local of its own plus a bounded counter loop,
  /// with a guaranteed unconditional helper call at the top of main. The
  /// guaranteed call makes the helper must-called, which is the license
  /// the validity layer needs to prune reads of the helper's own
  /// uninitialized local (analysis/CallSummary.h). Default 0 preserves
  /// the historical stream bit for bit.
  double RichHelperProb = 0.0;
  unsigned MinStmts = 2;
  unsigned MaxStmts = 3;
};

/// Generates one deterministic pseudo-random c-torture-style program.
std::string generateCorpusProgram(uint64_t Seed, const CorpusOptions &Opts);

/// Generates \p Count programs with seeds Base..Base+Count-1.
std::vector<std::string> generateCorpus(uint64_t Base, unsigned Count,
                                        const CorpusOptions &Opts = {});

/// Handwritten seeds adapted from the paper's figures; each is a valid,
/// UB-free program whose enumeration neighborhood contains injected-bug
/// trigger patterns.
const std::vector<std::string> &embeddedSeeds();

} // namespace spe

#endif // SPE_TESTING_CORPUS_H
