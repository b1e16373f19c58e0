//===- compiler/Compiler.h - MiniCC driver --------------------------------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MiniCC driver: feature extraction, IR generation, the optimization
/// pipeline with coverage instrumentation, and the injected-bug hooks. This
/// is the "compiler under test" of the differential harness; the paper's
/// GCC/Clang stand-ins are CompilerConfig personas over this driver.
///
/// A compilation has a config-free stage (features, IRGen) and a per-config
/// stage (bug hooks, pipeline, mutilation, verifier). LoweredUnit runs the
/// first once and the second for any number of configs; MiniCompiler is
/// its one-config case.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_COMPILER_COMPILER_H
#define SPE_COMPILER_COMPILER_H

#include "compiler/Bugs.h"
#include "compiler/Coverage.h"
#include "compiler/IRGen.h"
#include "compiler/VM.h"

#include <map>
#include <utility>

namespace spe {

/// Outcome of one compilation.
struct CompileResult {
  enum class Status {
    Ok,       ///< Module ready to execute.
    Crashed,  ///< Internal compiler error (an injected bug fired).
    Rejected, ///< Outside the compilable subset.
  };
  Status St = Status::Rejected;
  IRModule Module;
  std::string CrashSignature;
  /// The injected bug behind a crash, or 0.
  int CrashBugId = 0;
  /// All injected bugs that fired (crash, wrong-code, performance).
  std::vector<int> FiredBugs;
  /// The mutilation of the first wrong-code bug that fired, or None.
  Mutilation Mut = Mutilation::None;
  /// Simulated compile cost; Performance bugs inflate it.
  uint64_t CompileCost = 0;
  std::string Error;

  bool ok() const { return St == Status::Ok; }
  bool crashed() const { return St == Status::Crashed; }
};

/// One analyzed translation unit, lowered once and compiled under any
/// number of configurations (DESIGN.md Section 12.5). The constructor runs
/// the config-free stage: feature extraction, IRGen and IRGen's coverage
/// points. compile() runs the per-config stage: the injected-bug hooks,
/// then -- unless a bug crashes the config -- the pipeline once per opt
/// level, the mutilation once per (opt level, mutilation) and the verifier
/// once per module a config gets. The pipeline reads only the opt level,
/// so every config gets exactly the module a fresh compilation would build.
///
/// Not thread-safe: IRGen interns types into the unit's ASTContext.
class LoweredUnit {
public:
  /// \param OneConfig compile() is called for one config only, so IRGen's
  ///        module moves through the stages instead of being copied.
  LoweredUnit(ASTContext &Ctx, CoverageRegistry *Cov, bool OneConfig = false);

  /// \returns \p Config's result without its Module: an Ok result's module
  /// is module(Config.OptLevel, Result.Mut).
  CompileResult compile(const CompilerConfig &Config, bool InjectBugs);

  /// The module compile() built for (\p OptLevel, \p Mut); valid while
  /// this unit lives.
  const IRModule &module(unsigned OptLevel, Mutilation Mut) const {
    return Modules.at({OptLevel, Mut}).Module;
  }
  /// Moves that module out of the unit; later compiles must not need it.
  IRModule takeModule(unsigned OptLevel, Mutilation Mut) {
    return std::move(Modules.at({OptLevel, Mut}).Module);
  }

private:
  struct Built {
    IRModule Module;
    /// Set by the first compile() whose config gets this module.
    bool Verified = false;
    std::string VerifyError;
  };
  /// The optimized and mutilated module of (OptLevel, Mut), built on first
  /// use from the one of (OptLevel, None).
  Built &build(unsigned OptLevel, Mutilation Mut);

  CoverageRegistry *Cov;
  bool OneConfig;
  ProgramFeatures Features;
  IRGenResult Gen;
  /// The cost of a compilation no Performance bug inflates.
  uint64_t BaseCost = 1;
  std::map<std::pair<unsigned, Mutilation>, Built> Modules;
};

/// Compiles one analyzed translation unit under a configuration: a
/// LoweredUnit compiled once, its module moved into the result.
class MiniCompiler {
public:
  /// \param Config   persona/version/opt-level/machine mode.
  /// \param Cov      optional coverage registry (Figure 9).
  /// \param InjectBugs when false the ground-truth bugs are disabled; this
  ///        is the "fixed compiler" used by differential self-validation.
  MiniCompiler(CompilerConfig Config, CoverageRegistry *Cov = nullptr,
               bool InjectBugs = true)
      : Config(Config), Cov(Cov), InjectBugs(InjectBugs) {}

  CompileResult compile(ASTContext &Ctx) const;

  const CompilerConfig &config() const { return Config; }

private:
  CompilerConfig Config;
  CoverageRegistry *Cov;
  bool InjectBugs;
};

/// Applies a wrong-code mutilation to the module (test hook; the driver
/// calls it internally when a WrongCode bug fires).
void applyMutilation(IRModule &M, Mutilation Mut);

} // namespace spe

#endif // SPE_COMPILER_COMPILER_H
