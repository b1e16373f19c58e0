//===- tests/testing_matrix_equivalence_test.cpp - matrix battery --------===//
//
// The equivalence battery behind the N-way differential matrix (DESIGN.md
// Section 14). The matrix generalizes the campaign loop along two axes --
// N backends per variant, M sweep inputs per compiled artifact -- and the
// guarantee that makes it trustworthy is degeneration: with N=2 (the
// reference oracle plus one backend) and M=1 (the single empty-stdin
// execution) the generalized loop must produce the classic campaign bit
// for bit, and every campaign must be bit-identical across thread counts,
// batch sizes, and kill/resume points: shard splits, batch boundaries,
// and the resumed continuation all cut the same deterministic rank stream
// differently. Golden pins at the end anchor four campaign shapes across
// commits, which no same-binary comparison can.
//
//===----------------------------------------------------------------------===//

#include "compiler/Passes.h"
#include "persist/Checkpoint.h"
#include "persist/LineText.h"
#include "testing/Corpus.h"
#include "testing/Harness.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace spe;

namespace {

/// An InProcessBackend clone under its own identity. Behaviorally
/// identical to the default backend, so a matrix over clones exercises the
/// full N-way compile/execute/vote machinery while every cell agrees --
/// the determinism tests isolate the plumbing, not divergence handling.
struct CloneBackend : CompilerBackend {
  InProcessBackend Inner;
  std::string Name;
  CloneBackend(std::string Name, bool InjectBugs)
      : Inner(InjectBugs), Name(std::move(Name)) {}
  std::string identity() const override { return Name; }
  bool hasGroundTruth() const override { return true; }
  BackendObservation run(const std::string &S, const CompilerConfig &C,
                         CoverageRegistry *Cov) const override {
    return Inner.run(S, C, Cov);
  }
  BackendObservation runWithInput(const std::string &S,
                                  const CompilerConfig &C,
                                  const std::string &In,
                                  CoverageRegistry *Cov) const override {
    return Inner.runWithInput(S, C, In, Cov);
  }
  std::vector<BackendObservation>
  runSweep(const std::string &S, const CompilerConfig &C,
           const std::vector<std::string> &Ins,
           CoverageRegistry *Cov) const override {
    return Inner.runSweep(S, C, Ins, Cov);
  }
};

/// Seeds whose enumeration reaches injected-bug triggers, plus one seed
/// that reads the sweep: spe_input() feeds the comparison different
/// behavior per input, so M > 1 exercises real per-cell verdicts instead
/// of M copies of the same execution.
std::vector<std::string> matrixSeeds() {
  const std::vector<std::string> &Embedded = embeddedSeeds();
  return {Embedded[0],
          "int main(void) {\n"
          "  int a = spe_input();\n"
          "  int b = 3, c = 1;\n"
          "  c = c - b;\n"
          "  if (a > c)\n"
          "    c = a - c;\n"
          "  return c * 10 + b;\n"
          "}\n",
          Embedded[2]};
}

HarnessOptions classicOptions(unsigned Threads, uint64_t BatchSize) {
  HarnessOptions Opts;
  Opts.Configs = HarnessOptions::crashMatrix(Persona::GccSim, 48);
  Opts.VariantBudget = 30;
  Opts.Threads = Threads;
  Opts.BatchSize = BatchSize;
  return Opts;
}

/// A real matrix shape: three backends (the default in-process primary
/// plus two clones) x four sweep inputs on every config.
HarnessOptions matrixOptions(unsigned Threads, uint64_t BatchSize,
                             const CloneBackend &B, const CloneBackend &C) {
  HarnessOptions Opts = classicOptions(Threads, BatchSize);
  for (CompilerConfig &Config : Opts.Configs)
    Config.ExecSweep = {"1\n", "7\n", "-3\n", "100\n"};
  Opts.ExtraBackends = {&B, &C};
  return Opts;
}

struct RunOutput {
  CampaignResult Result;
  CoverageRegistry Cov;
};

RunOutput runWith(const HarnessOptions &Base) {
  RunOutput Out;
  registerPassCoverageCatalog(Out.Cov);
  HarnessOptions Opts = Base;
  Opts.Cov = &Out.Cov;
  Out.Result = DifferentialHarness(Opts).runCampaign(matrixSeeds());
  return Out;
}

void expectIdentical(const RunOutput &A, const RunOutput &B,
                     const std::string &Tag) {
  EXPECT_TRUE(A.Result == B.Result)
      << Tag << ": results diverged (" << A.Result.VariantsTested << "/"
      << B.Result.VariantsTested << " tested, "
      << A.Result.RawFindings.size() << "/" << B.Result.RawFindings.size()
      << " raw findings, " << A.Result.MatrixCellsCompared << "/"
      << B.Result.MatrixCellsCompared << " cells)";
  EXPECT_EQ(A.Cov.hitSet(), B.Cov.hitSet()) << Tag;
}

} // namespace

//===----------------------------------------------------------------------===//
// Degeneration: N=2 / M=1 is the classic campaign
//===----------------------------------------------------------------------===//

TEST(MatrixEquivalenceTest, ClassicCampaignIsIdenticalAcrossThreadsAndBatch) {
  // The N=2/M=1 configuration (no ExtraBackends, no ExecSweep) must stay
  // the classic single-backend campaign, bit for bit, at every batch size
  // (batches of one and of eight) and any worker count.
  RunOutput Ref = runWith(classicOptions(1, 1));
  EXPECT_FALSE(Ref.Result.RawFindings.empty());
  // The matrix counters must be inert in a classic campaign.
  EXPECT_EQ(Ref.Result.MatrixCellsCompared, 0u);
  EXPECT_EQ(Ref.Result.SweepCellsExcluded, 0u);
  // And classic findings must not carry matrix attribution: the sole
  // backend is implied, which is what keeps signatures and checkpoint
  // bytes unchanged from the pre-matrix format.
  for (const auto &KV : Ref.Result.RawFindings) {
    EXPECT_EQ(KV.first.BackendIdx, 0u);
    EXPECT_EQ(KV.first.InputIdx, 0u);
    EXPECT_EQ(KV.second.Backend, "");
    EXPECT_EQ(KV.second.Input, "");
  }
  for (unsigned Threads : {1u, 2u, 4u})
    for (uint64_t Batch : {uint64_t(1), uint64_t(8)}) {
      if (Threads == 1 && Batch == 1)
        continue;
      expectIdentical(runWith(classicOptions(Threads, Batch)), Ref,
                      "classic t" + std::to_string(Threads) + " b" +
                          std::to_string(Batch));
    }
}

TEST(MatrixEquivalenceTest, EmptySweepEqualsSingletonEmptySweep) {
  // M=1 written explicitly (ExecSweep {""}) must degenerate to no sweep at
  // all: configInputs maps both to the same single empty-stdin execution.
  RunOutput Plain = runWith(classicOptions(2, 4));
  HarnessOptions Explicit = classicOptions(2, 4);
  for (CompilerConfig &Config : Explicit.Configs)
    Config.ExecSweep = {""};
  expectIdentical(runWith(Explicit), Plain, "explicit M=1");
}

//===----------------------------------------------------------------------===//
// Matrix determinism: threads x batch sizes
//===----------------------------------------------------------------------===//

TEST(MatrixEquivalenceTest, MatrixCampaignIsDeterministic) {
  CloneBackend B("minicc-cloneB", true), C("minicc-cloneC", true);
  RunOutput Ref = runWith(matrixOptions(1, 1, B, C));
  // The matrix must have actually engaged: per-cell comparisons happened,
  // and with agreeing clones the finding stream still attributes per
  // roster slot (the same ground-truth bug observed by three backends is
  // three raw findings).
  EXPECT_GT(Ref.Result.MatrixCellsCompared, 0u);
  EXPECT_FALSE(Ref.Result.RawFindings.empty());
  bool SawExtraSlot = false;
  for (const auto &KV : Ref.Result.RawFindings)
    SawExtraSlot |= KV.first.BackendIdx > 0;
  EXPECT_TRUE(SawExtraSlot)
      << "no finding was attributed to an ExtraBackends roster slot";
  for (unsigned Threads : {1u, 2u, 4u})
    for (uint64_t Batch : {uint64_t(1), uint64_t(8)}) {
      if (Threads == 1 && Batch == 1)
        continue;
      expectIdentical(runWith(matrixOptions(Threads, Batch, B, C)), Ref,
                      "matrix t" + std::to_string(Threads) + " b" +
                          std::to_string(Batch));
    }
}

TEST(MatrixEquivalenceTest, SweepInputsReachProgramBehavior) {
  // The spe_input() seed must produce different oracle verdicts across the
  // sweep -- otherwise M executions are one execution copied M times and
  // the matrix proves nothing. Detect via the harness itself: a sweep
  // campaign must compare strictly more cells than configs x variants
  // (i.e. the extra inputs were actually executed and compared).
  CloneBackend B("minicc-cloneB", true), C("minicc-cloneC", true);
  RunOutput Swept = runWith(matrixOptions(1, 1, B, C));
  HarnessOptions OneInput = matrixOptions(1, 1, B, C);
  for (CompilerConfig &Config : OneInput.Configs)
    Config.ExecSweep = {"1\n"};
  RunOutput Single = runWith(OneInput);
  EXPECT_GT(Swept.Result.MatrixCellsCompared,
            Single.Result.MatrixCellsCompared);
}

//===----------------------------------------------------------------------===//
// Resume-mid-matrix: the kill-point battery
//===----------------------------------------------------------------------===//

namespace {

struct TempDir {
  std::string Dir;
  explicit TempDir(const std::string &Name)
      : Dir("matrix_test_tmp/" + Name) {
    std::filesystem::remove_all(Dir);
    std::filesystem::create_directories(Dir);
  }
  std::string path(const char *File) const { return Dir + "/" + File; }
};

} // namespace

TEST(MatrixEquivalenceTest, ResumeMidMatrixIsExact) {
  CloneBackend B("minicc-cloneB", true), C("minicc-cloneC", true);
  std::vector<std::string> Seeds = matrixSeeds();

  HarnessOptions RefOpts = matrixOptions(2, 4, B, C);
  RefOpts.CheckpointEveryN = 5;
  TempDir RefT("ref");
  RunOutput Ref;
  registerPassCoverageCatalog(Ref.Cov);
  {
    HarnessOptions Opts = RefOpts;
    Opts.Cov = &Ref.Cov;
    Opts.CheckpointPath = RefT.path("campaign.ck");
    Ref.Result = DifferentialHarness(Opts).runCampaign(Seeds);
  }

  for (uint64_t KillAfter : {uint64_t(3), uint64_t(11), uint64_t(26),
                             uint64_t(47)}) {
    TempDir T("kill_" + std::to_string(KillAfter));
    {
      // The "crashed process": a batch may be mid-flight across the whole
      // roster when the kill lands; its tickets are abandoned.
      CoverageRegistry CrashCov;
      registerPassCoverageCatalog(CrashCov);
      HarnessOptions Opts = RefOpts;
      Opts.Cov = &CrashCov;
      Opts.CheckpointPath = T.path("campaign.ck");
      Opts.SimulateCrashAfter = KillAfter;
      DifferentialHarness(Opts).runCampaign(Seeds);
    }
    RunOutput Resumed;
    registerPassCoverageCatalog(Resumed.Cov);
    HarnessOptions Opts = RefOpts;
    Opts.Cov = &Resumed.Cov;
    Opts.CheckpointPath = T.path("campaign.ck");
    std::string Err;
    ASSERT_TRUE(DifferentialHarness(Opts).resumeCampaign(Seeds,
                                                         Resumed.Result, Err))
        << "kill@" << KillAfter << ": " << Err;
    expectIdentical(Resumed, Ref, "kill@" + std::to_string(KillAfter));
  }
}

TEST(MatrixEquivalenceTest, RosterAndSweepSkewRejectTheResume) {
  // The checkpoint fingerprints the full roster identity list and every
  // config's sweep: resuming the same file under a different matrix shape
  // must be refused, not silently diverge.
  CloneBackend B("minicc-cloneB", true), C("minicc-cloneC", true);
  std::vector<std::string> Seeds = matrixSeeds();
  TempDir T("skew");
  HarnessOptions Opts = matrixOptions(1, 1, B, C);
  Opts.CheckpointPath = T.path("campaign.ck");
  DifferentialHarness(Opts).runCampaign(Seeds);

  CampaignResult Ignored;
  std::string Err;
  {
    // Dropped roster slot.
    HarnessOptions Skew = Opts;
    Skew.ExtraBackends = {&B};
    EXPECT_FALSE(
        DifferentialHarness(Skew).resumeCampaign(Seeds, Ignored, Err));
  }
  {
    // Same roster size, different identity.
    CloneBackend D("minicc-cloneD", true);
    HarnessOptions Skew = Opts;
    Skew.ExtraBackends = {&B, &D};
    EXPECT_FALSE(
        DifferentialHarness(Skew).resumeCampaign(Seeds, Ignored, Err));
  }
  {
    // Extended sweep.
    HarnessOptions Skew = Opts;
    for (CompilerConfig &Config : Skew.Configs)
      Config.ExecSweep.push_back("9\n");
    EXPECT_FALSE(
        DifferentialHarness(Skew).resumeCampaign(Seeds, Ignored, Err));
  }
}

//===----------------------------------------------------------------------===//
// Cross-commit golden pins
//===----------------------------------------------------------------------===//
//
// Every battery above compares two execution strategies inside one binary,
// so a change that moved classic and matrix campaigns the *same* way would
// pass them all. These pins anchor behavior across commits instead: the
// FNV-1a of the final Complete checkpoint file (every counter, both
// finding maps, and the coverage hit set) plus the sorted triaged cluster
// signatures, committed as literals for four campaign shapes. Each shape
// also runs with no CheckpointPath at 1 and 4 threads and must equal the
// pinned checkpointed run, so the plain path is anchored by the same
// literals.

namespace {

struct GoldenPin {
  uint64_t CheckpointFnv = 0;
  std::vector<std::string> Clusters;
  /// The checkpointed run itself, for the plain-path comparisons.
  RunOutput Run;
};

GoldenPin goldenPinOf(const HarnessOptions &Base, const std::string &Name) {
  TempDir T("golden_" + Name);
  HarnessOptions Opts = Base;
  Opts.Triage = true;
  Opts.CheckpointPath = T.path("campaign.ck");
  GoldenPin Pin;
  Pin.Run = runWith(Opts);
  const CampaignResult &R = Pin.Run.Result;

  std::ifstream In(Opts.CheckpointPath, std::ios::binary);
  std::ostringstream Bytes;
  Bytes << In.rdbuf();
  std::string Text = Bytes.str();
  EXPECT_NE(Text.find("\ncomplete 1\n"), std::string::npos) << Name;
  linetext::Fnv Sum;
  Sum.bytes(Text.data(), Text.size());
  Pin.CheckpointFnv = Sum.H;
  for (const TriagedBug &Bug : R.Triaged)
    Pin.Clusters.push_back(Bug.Sig.str());
  std::sort(Pin.Clusters.begin(), Pin.Clusters.end());
  return Pin;
}

void expectGolden(const HarnessOptions &Opts, const std::string &Name,
                  uint64_t WantFnv, const std::vector<std::string> &Want) {
  GoldenPin Got = goldenPinOf(Opts, Name);
  std::string Listing;
  for (const std::string &S : Got.Clusters)
    Listing += "\n  \"" + S + "\",";
  EXPECT_EQ(Got.CheckpointFnv, WantFnv)
      << Name << ": checkpoint bytes moved (clusters:" << Listing << ")";
  EXPECT_EQ(Got.Clusters, Want) << Name << ": clusters moved:" << Listing;
  // The same shape without a checkpoint file must be the same campaign.
  for (unsigned Threads : {1u, 4u}) {
    HarnessOptions Plain = Opts;
    Plain.Triage = true;
    Plain.Threads = Threads;
    expectIdentical(runWith(Plain), Got.Run,
                    Name + " plain t" + std::to_string(Threads));
  }
}

} // namespace

TEST(MatrixEquivalenceTest, GoldenClassicUnbatched) {
  expectGolden(classicOptions(1, 1), "classic_k1", 9455676185978897303ull,
               {"gcc-sim/wrong-code/miscompilation (exit)"});
}

TEST(MatrixEquivalenceTest, GoldenClassicBatched) {
  // Batching is result-neutral, so this is classic_k1's pin exactly.
  expectGolden(classicOptions(1, 8), "classic_k8", 9455676185978897303ull,
               {"gcc-sim/wrong-code/miscompilation (exit)"});
}

TEST(MatrixEquivalenceTest, GoldenSingleBackendTwoInputSweep) {
  HarnessOptions Opts = classicOptions(1, 1);
  for (CompilerConfig &Config : Opts.Configs)
    Config.ExecSweep = {"1\n", "-3\n"};
  expectGolden(Opts, "sweep_m2", 11895131745423904391ull,
               {"gcc-sim/wrong-code/miscompilation (exit)"});
}

TEST(MatrixEquivalenceTest, GoldenThreeBackendMatrix) {
  CloneBackend B("minicc-cloneB", true), C("minicc-cloneC", true);
  // Three agreeing clones outvote the oracle on the injected miscompile.
  expectGolden(matrixOptions(1, 1, B, C), "matrix_n3", 5054206416074854235ull,
               {"gcc-sim/wrong-code/miscompilation (exit)@reference-oracle"});
}

TEST(MatrixEquivalenceTest, PlainCampaignIgnoresSimulatedCrash) {
  // The crash hook only kills checkpointed campaigns: without a snapshot
  // file there is nothing to resume from, so a plain campaign runs to
  // completion as if the hook were unset.
  RunOutput Ref = runWith(classicOptions(1, 1));
  for (unsigned Threads : {1u, 4u}) {
    HarnessOptions Opts = classicOptions(Threads, 1);
    Opts.SimulateCrashAfter = 5;
    expectIdentical(runWith(Opts), Ref,
                    "crash hook t" + std::to_string(Threads));
  }
}
