//===- tests/testing_attribution_test.cpp - single-backend attribution ---===//
//
// The attribution table of a single-backend campaign: every shape a
// backend observation can take, pushed through DifferentialHarness::
// testProgram by a scripted backend, with the raw findings (keys and
// signatures) and the Crash / WrongCode / Performance / ExecutionTimeouts
// counters pinned exactly -- once for a ground-truth backend (findings
// keyed by injected-bug id) and once for a signature-only one (BugId 0,
// keyed by normalized signature). With one backend the matrix vote can
// never outvote the oracle, so this table is also what a 1-backend x
// 1-input matrix must reduce to.
//
//===----------------------------------------------------------------------===//

#include "testing/Harness.h"

#include "gtest/gtest.h"

#include <map>
#include <string>
#include <utility>

using namespace spe;

namespace {

/// Oracle verdict: exit 3, no output.
const char *const Program = "int main(void) {\n"
                            "  return 3;\n"
                            "}\n";

/// One row per observation shape; the config's Version selects the row,
/// so every finding's key names the shape that produced it.
enum Row : unsigned {
  Reject = 1,
  CrashWithId,
  CrashSignatureOnly,
  CompileTimeAnomaly,
  CompileTimeout,
  ExecTimeout,
  Trap,
  ExitFullWidth,
  ExitLow8Masked,
  OutputMismatch,
  ForeignFiredId,
  NumRows = ForeignFiredId,
};

int firstBugWith(BugEffect E) {
  for (const InjectedBug &B : bugDatabase())
    if (B.Effect == E)
      return B.Id;
  return 0;
}

const int CrashId = firstBugWith(BugEffect::Crash);
const int WrongId = firstBugWith(BugEffect::WrongCode);
const int PerfId = firstBugWith(BugEffect::Performance);
const int ForeignId = 99999;

const char *const IceLine = "internal compiler error: in fold, at fold.c:12";
const char *const SegvLine = "compiler killed by signal 11";

/// Returns a fixed observation per row, whatever the source.
struct ScriptedBackend : CompilerBackend {
  bool Truth;
  explicit ScriptedBackend(bool Truth) : Truth(Truth) {}
  std::string identity() const override { return "scripted"; }
  bool hasGroundTruth() const override { return Truth; }
  BackendObservation run(const std::string &, const CompilerConfig &Config,
                         CoverageRegistry *) const override {
    using CS = BackendObservation::CompileStatus;
    using ES = BackendObservation::ExecStatus;
    BackendObservation O;
    O.Compile = CS::Ok;
    O.Exec = ES::Ok;
    O.ExitCode = 3;
    switch (Config.Version) {
    case Reject:
      O.Compile = CS::Rejected;
      O.Exec = ES::NotRun;
      O.FiredBugs = {WrongId};
      break;
    case CrashWithId:
      O.Compile = CS::Crashed;
      O.Exec = ES::NotRun;
      O.CrashBugId = CrashId;
      O.CrashSignature = IceLine;
      O.FiredBugs = {CrashId};
      break;
    case CrashSignatureOnly:
      O.Compile = CS::Crashed;
      O.Exec = ES::NotRun;
      O.CrashSignature = SegvLine;
      break;
    case CompileTimeAnomaly:
      // A fired wrong-code id is not a performance finding; the run itself
      // agrees with the oracle.
      O.CompileTimeAnomaly = true;
      O.FiredBugs = {PerfId, WrongId};
      break;
    case CompileTimeout:
      O.Compile = CS::TimedOut;
      O.Exec = ES::NotRun;
      O.CompileTimeAnomaly = true;
      break;
    case ExecTimeout:
      O.Exec = ES::Timeout;
      O.FiredBugs = {WrongId};
      break;
    case Trap:
      O.Exec = ES::Trap;
      O.FiredBugs = {WrongId};
      break;
    case ExitFullWidth:
      O.ExitCode = 256 + 3;
      O.FiredBugs = {WrongId};
      break;
    case ExitLow8Masked:
      O.ExitCode = 256 + 3;
      O.ExitCodeLow8 = true;
      O.FiredBugs = {WrongId};
      break;
    case OutputMismatch:
      O.Output = "x\n";
      O.FiredBugs = {WrongId};
      break;
    case ForeignFiredId:
      O.ExitCode = 4;
      O.FiredBugs = {ForeignId, CrashId};
      break;
    default:
      break;
    }
    return O;
  }
};

CampaignResult runTable(bool GroundTruth) {
  ScriptedBackend B(GroundTruth);
  HarnessOptions Opts;
  Opts.Backend = &B;
  for (unsigned V = 1; V <= NumRows; ++V) {
    CompilerConfig C;
    C.P = Persona::GccSim;
    C.Version = V;
    C.OptLevel = 0;
    C.Mode64 = true;
    Opts.Configs.push_back(C);
  }
  CampaignResult R;
  DifferentialHarness(Opts).testProgram(Program, R);
  return R;
}

using Table = std::map<FindingKey, std::pair<BugEffect, std::string>>;

/// The raw finding at row \p V: ground-truth keyed by \p Id, or
/// signature-keyed when \p Id is 0.
void expect(Table &T, unsigned V, int Id, BugEffect E, const std::string &Sig) {
  FindingKey K;
  K.BugId = Id;
  K.P = Persona::GccSim;
  K.Version = V;
  K.OptLevel = 0;
  K.Mode64 = true;
  if (Id == 0)
    K.Sig = normalizeSignature(E, Sig);
  T[K] = {E, Sig};
}

Table observed(const CampaignResult &R) {
  Table T;
  for (const auto &[Key, Bug] : R.RawFindings) {
    T[Key] = {Bug.Effect, Bug.Signature};
    EXPECT_EQ(Bug.BugId, Key.BugId);
    EXPECT_EQ(Bug.Version, Key.Version);
    EXPECT_EQ(Bug.Backend, "") << "single backend is implied";
    EXPECT_EQ(Bug.Input, "");
    EXPECT_EQ(Bug.WitnessProgram, Program);
    EXPECT_EQ(Key.BackendIdx, 0u);
    EXPECT_EQ(Key.InputIdx, 0u);
  }
  return T;
}

void expectCounters(const CampaignResult &R) {
  EXPECT_EQ(R.VariantsTested, 1u);
  EXPECT_EQ(R.VariantsOracleExcluded, 0u);
  // Both crash rows.
  EXPECT_EQ(R.CrashObservations, 2u);
  // The anomaly row and the compile timeout.
  EXPECT_EQ(R.PerformanceObservations, 2u);
  // Exec timeout, trap, full-width exit, output, foreign id. The masked
  // low-8 exit agrees with the oracle.
  EXPECT_EQ(R.WrongCodeObservations, 5u);
  EXPECT_EQ(R.ExecutionTimeouts, 1u);
  EXPECT_EQ(R.MatrixCellsCompared, 0u);
  EXPECT_EQ(R.SweepCellsExcluded, 0u);
}

} // namespace

TEST(AttributionTableTest, BugDatabaseHasEveryEffect) {
  EXPECT_NE(CrashId, 0);
  EXPECT_NE(WrongId, 0);
  EXPECT_NE(PerfId, 0);
  EXPECT_EQ(findBug(ForeignId), nullptr);
}

TEST(AttributionTableTest, GroundTruthBackend) {
  CampaignResult R = runTable(true);
  expectCounters(R);

  Table Want;
  expect(Want, CrashWithId, CrashId, BugEffect::Crash, IceLine);
  expect(Want, CrashSignatureOnly, 0, BugEffect::Crash, SegvLine);
  expect(Want, CompileTimeAnomaly, PerfId, BugEffect::Performance,
         "pathological compile time");
  // CompileTimeout: counted, but no performance bug fired.
  expect(Want, ExecTimeout, WrongId, BugEffect::WrongCode,
         "miscompilation (hang)");
  expect(Want, Trap, WrongId, BugEffect::WrongCode, "miscompilation (trap)");
  expect(Want, ExitFullWidth, WrongId, BugEffect::WrongCode,
         "miscompilation (exit 259 != 3)");
  expect(Want, OutputMismatch, WrongId, BugEffect::WrongCode,
         "miscompilation (output)");
  // ForeignFiredId: counted, but neither fired id is a known wrong-code
  // bug, so nothing is attributed.
  EXPECT_EQ(observed(R), Want);

  // UniqueBugs: first witness per id, in config order.
  ASSERT_EQ(R.UniqueBugs.size(), 3u);
  EXPECT_EQ(R.UniqueBugs.at(CrashId).Version, unsigned(CrashWithId));
  EXPECT_EQ(R.UniqueBugs.at(PerfId).Version, unsigned(CompileTimeAnomaly));
  EXPECT_EQ(R.UniqueBugs.at(WrongId).Version, unsigned(ExecTimeout));
  EXPECT_EQ(R.UniqueBugs.at(WrongId).Signature, "miscompilation (hang)");
}

TEST(AttributionTableTest, SignatureOnlyBackend) {
  CampaignResult R = runTable(false);
  expectCounters(R);

  Table Want;
  // A crash keeps whatever id the backend reported, ground truth or not.
  expect(Want, CrashWithId, CrashId, BugEffect::Crash, IceLine);
  expect(Want, CrashSignatureOnly, 0, BugEffect::Crash, SegvLine);
  expect(Want, CompileTimeAnomaly, 0, BugEffect::Performance,
         "pathological compile time");
  expect(Want, CompileTimeout, 0, BugEffect::Performance,
         "pathological compile time");
  expect(Want, ExecTimeout, 0, BugEffect::WrongCode, "miscompilation (hang)");
  expect(Want, Trap, 0, BugEffect::WrongCode, "miscompilation (trap)");
  expect(Want, ExitFullWidth, 0, BugEffect::WrongCode,
         "miscompilation (exit 259 != 3)");
  expect(Want, OutputMismatch, 0, BugEffect::WrongCode,
         "miscompilation (output)");
  expect(Want, ForeignFiredId, 0, BugEffect::WrongCode,
         "miscompilation (exit 4 != 3)");
  EXPECT_EQ(observed(R), Want);

  // Signature-only findings never touch UniqueBugs; only the crash that
  // carried an id does.
  ASSERT_EQ(R.UniqueBugs.size(), 1u);
  EXPECT_EQ(R.UniqueBugs.count(CrashId), 1u);
}
