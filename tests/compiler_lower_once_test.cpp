//===- tests/compiler_lower_once_test.cpp - lowering once is exact --------===//
//
// InProcessBackend::finishBatch lowers each variant once for all configs:
// one parse, one IRGen, one pipeline per opt level that a non-crashing
// config reaches, and one VM run per distinct (opt level, mutilation,
// input). This battery checks that the sharing is exact: every cell of the
// batch grid equals what a fresh per-config compilation produces (parse,
// MiniCompiler::compile, executeModule), field by field, and each batch
// leaves the same coverage hit set.
//
// The corpus is the persona window of compiler_vm_verdict_pin_test (the
// first 400 variants of every seed under the 10K threshold) that the
// reference interpreter accepts, under the
// campaigns' GccSim 48 + ClangSim 39 crash matrices and under an O0/O2
// list swept over two inputs, with injected bugs on and off. Hand-written
// cases pin the two places where sharing could go wrong: an opt level at
// which every config crashes, and a wrong-code bug that fires under one
// config of an opt level but not under another.
//
//===----------------------------------------------------------------------===//

#include "compiler/Backend.h"
#include "compiler/Compiler.h"
#include "compiler/Passes.h"
#include "interp/Interpreter.h"
#include "lang/Parser.h"
#include "sema/Sema.h"
#include "skeleton/ProgramEnumerator.h"
#include "skeleton/SkeletonExtractor.h"
#include "skeleton/VariantRenderer.h"
#include "testing/Corpus.h"
#include "testing/Harness.h"

#include "gtest/gtest.h"

#include <thread>

using namespace spe;

namespace {

/// [variant][config][input], the layout finishBatch returns.
using Grid = std::vector<std::vector<std::vector<BackendObservation>>>;

/// Variants per finishBatch call: more than one, so state that leaked from
/// one variant into the next would show.
constexpr size_t BatchSize = 4;

/// The observation row of \p Config the way the backend computed it before
/// lowering was shared: a fresh parse and compile for this config alone,
/// then one VM run per input.
std::vector<BackendObservation> referenceRow(const std::string &Source,
                                             const CompilerConfig &Config,
                                             bool InjectBugs,
                                             CoverageRegistry *Cov) {
  std::vector<std::string> Inputs = configInputs(Config);
  BackendObservation Obs;
  std::unique_ptr<ASTContext> Ctx = parseAndAnalyze(Source);
  if (!Ctx)
    return std::vector<BackendObservation>(Inputs.size(), Obs);
  CompileResult R = MiniCompiler(Config, Cov, InjectBugs).compile(*Ctx);
  if (R.St == CompileResult::Status::Rejected)
    return std::vector<BackendObservation>(Inputs.size(), Obs);
  Obs.FiredBugs = R.FiredBugs;
  if (R.crashed()) {
    Obs.Compile = BackendObservation::CompileStatus::Crashed;
    Obs.CrashSignature = R.CrashSignature;
    Obs.CrashBugId = R.CrashBugId;
    return std::vector<BackendObservation>(Inputs.size(), Obs);
  }
  Obs.Compile = BackendObservation::CompileStatus::Ok;
  Obs.CompileTimeAnomaly = R.CompileCost > 1'000'000;
  std::vector<BackendObservation> Row(Inputs.size(), Obs);
  for (size_t I = 0; I < Inputs.size(); ++I) {
    VMOptions VO;
    VO.Input = Inputs[I];
    VMResult V = executeModule(R.Module, VO);
    switch (V.Status) {
    case VMStatus::Ok:
      Row[I].Exec = BackendObservation::ExecStatus::Ok;
      break;
    case VMStatus::Trap:
      Row[I].Exec = BackendObservation::ExecStatus::Trap;
      break;
    case VMStatus::Timeout:
      Row[I].Exec = BackendObservation::ExecStatus::Timeout;
      break;
    }
    Row[I].ExitCode = V.ExitCode;
    Row[I].Output = V.Output;
  }
  return Row;
}

Grid referenceGrid(const std::vector<std::string> &Sources,
                   const std::vector<CompilerConfig> &Configs,
                   bool InjectBugs, CoverageRegistry *Cov) {
  Grid Out(Sources.size());
  for (size_t V = 0; V < Sources.size(); ++V)
    for (const CompilerConfig &Config : Configs)
      Out[V].push_back(referenceRow(Sources[V], Config, InjectBugs, Cov));
  return Out;
}

Grid batchGrid(const InProcessBackend &Backend,
               const std::vector<std::string> &Sources,
               const std::vector<CompilerConfig> &Configs,
               CoverageRegistry *Cov) {
  std::vector<BatchExpectation> Expected(Sources.size());
  return Backend.finishBatch(
      Backend.beginBatch(Sources, std::move(Expected), Configs, Cov));
}

std::string describe(const CompilerConfig &C) {
  return std::string(personaName(C.P)) + " v" + std::to_string(C.Version) +
         " O" + std::to_string(C.OptLevel) + (C.Mode64 ? " m64" : " m32");
}

/// Field-by-field comparison of two grids over the same sources and
/// configs. \returns the number of mismatching cells (each also reported).
size_t compareGrids(const Grid &Got, const Grid &Want,
                    const std::vector<std::string> &Sources,
                    const std::vector<CompilerConfig> &Configs) {
  size_t Mismatches = 0;
  if (Got.size() != Want.size()) {
    ADD_FAILURE() << "grid has " << Got.size() << " variants, want "
                  << Want.size();
    return 1;
  }
  for (size_t V = 0; V < Want.size(); ++V) {
    if (Got[V].size() != Want[V].size()) {
      ADD_FAILURE() << "variant " << V << " has " << Got[V].size()
                    << " rows, want " << Want[V].size();
      ++Mismatches;
      continue;
    }
    for (size_t C = 0; C < Want[V].size(); ++C) {
      if (Got[V][C].size() != Want[V][C].size()) {
        ADD_FAILURE() << "row " << describe(Configs[C]) << " has "
                      << Got[V][C].size() << " cells, want "
                      << Want[V][C].size();
        ++Mismatches;
        continue;
      }
      for (size_t I = 0; I < Want[V][C].size(); ++I) {
        const BackendObservation &G = Got[V][C][I];
        const BackendObservation &W = Want[V][C][I];
        bool Same = G.Compile == W.Compile &&
                    G.CrashSignature == W.CrashSignature &&
                    G.CrashBugId == W.CrashBugId &&
                    G.FiredBugs == W.FiredBugs &&
                    G.CompileTimeAnomaly == W.CompileTimeAnomaly &&
                    G.Exec == W.Exec && G.ExitCode == W.ExitCode &&
                    G.Output == W.Output;
        if (Same)
          continue;
        // Report the first few in full; a broken key breaks thousands.
        if (++Mismatches <= 5)
          ADD_FAILURE() << "cell (" << describe(Configs[C]) << ", input "
                        << I << ") differs: compile "
                        << static_cast<int>(G.Compile) << " vs "
                        << static_cast<int>(W.Compile) << ", crash '"
                        << G.CrashSignature << "' vs '" << W.CrashSignature
                        << "', exec " << static_cast<int>(G.Exec) << " vs "
                        << static_cast<int>(W.Exec) << ", exit "
                        << G.ExitCode << " vs " << W.ExitCode
                        << ", output '" << G.Output << "' vs '" << W.Output
                        << "'\nvariant:\n"
                        << Sources[V];
      }
    }
  }
  return Mismatches;
}

CoverageRegistry catalogRegistry() {
  CoverageRegistry Cov;
  registerPassCoverageCatalog(Cov);
  return Cov;
}

/// Compares the batch grid with the per-config reference over \p Sources in
/// batches of BatchSize, and the coverage hit set of every batch.
void expectLowerOnceExact(const std::vector<std::string> &Sources,
                          const std::vector<CompilerConfig> &Configs,
                          bool InjectBugs) {
  InProcessBackend Backend(InjectBugs);
  CoverageRegistry BatchCov = catalogRegistry();
  CoverageRegistry RefCov = catalogRegistry();
  size_t Mismatches = 0, CovMismatches = 0;
  for (size_t Begin = 0; Begin < Sources.size(); Begin += BatchSize) {
    std::vector<std::string> Batch(
        Sources.begin() + static_cast<long>(Begin),
        Sources.begin() +
            static_cast<long>(std::min(Sources.size(), Begin + BatchSize)));
    BatchCov.resetHits();
    RefCov.resetHits();
    Mismatches += compareGrids(batchGrid(Backend, Batch, Configs, &BatchCov),
                               referenceGrid(Batch, Configs, InjectBugs,
                                             &RefCov),
                               Batch, Configs);
    if (BatchCov.hitSet() != RefCov.hitSet() && ++CovMismatches <= 3)
      ADD_FAILURE() << "coverage hit sets differ for the batch at "
                    << Begin;
  }
  EXPECT_EQ(Mismatches, 0u);
  EXPECT_EQ(CovMismatches, 0u);
}

/// The persona window of compiler_vm_verdict_pin_test (the first 400
/// variants of every embedded-plus-generated seed whose SPE count is at
/// most 10K), narrowed to what a campaign hands its backend: the variants
/// the reference interpreter runs to completion. The rest are mostly
/// non-terminating programs whose 5M-step VM runs would dominate the
/// battery's time without reaching a campaign.
const std::vector<std::string> &personaWindow() {
  static const std::vector<std::string> Window = [] {
    CorpusOptions Opts;
    Opts.UninitLocalProb = 0.6;
    std::vector<std::string> Seeds = embeddedSeeds();
    std::vector<std::string> Gen = generateCorpus(2000, 40, Opts);
    Seeds.insert(Seeds.end(), Gen.begin(), Gen.end());
    std::vector<std::string> Out;
    for (const std::string &Seed : Seeds) {
      ASTContext Ctx;
      DiagnosticEngine Diags;
      if (!Parser::parse(Seed, Ctx, Diags))
        continue;
      Sema Analysis(Ctx, Diags);
      if (!Analysis.run())
        continue;
      std::vector<SkeletonUnit> Units =
          SkeletonExtractor(Ctx, Analysis).extract();
      if (ProgramEnumerator(Units, SpeMode::Exact).countSpe() > BigInt(10'000))
        continue;
      ProgramCursor Cursor(Units, SpeMode::Exact);
      Cursor.setEnd(BigInt(400));
      VariantRenderer Renderer(Ctx, Units);
      std::string Source;
      while (const ProgramAssignment *PA = Cursor.next()) {
        Renderer.renderInto(*PA, Source);
        std::unique_ptr<ASTContext> Ref = parseAndAnalyze(Source);
        if (Ref && interpret(*Ref).Status == ExecStatus::Ok)
          Out.push_back(Source);
      }
    }
    return Out;
  }();
  return Window;
}

std::vector<CompilerConfig> crashMatrices() {
  std::vector<CompilerConfig> Configs =
      HarnessOptions::crashMatrix(Persona::GccSim, 48);
  std::vector<CompilerConfig> Clang =
      HarnessOptions::crashMatrix(Persona::ClangSim, 39);
  Configs.insert(Configs.end(), Clang.begin(), Clang.end());
  return Configs;
}

/// O0 and O2 swept over two inputs; the two O2 configs share a pipeline
/// but not their injected bugs.
std::vector<CompilerConfig> sweptConfigs() {
  const std::vector<std::string> Sweep = {"1\n", "7\n"};
  return {{Persona::GccSim, 70, 0, true, Sweep},
          {Persona::GccSim, 70, 2, true, Sweep},
          {Persona::ClangSim, 39, 2, false, Sweep}};
}

} // namespace

TEST(CompilerLowerOnceTest, CrashMatrixGridMatchesPerConfigCompiles) {
  // 2350 of the pin test's 3622 variants: the tested count of the seed-0
  // persona-sweep campaign.
  ASSERT_EQ(personaWindow().size(), 2350u);
  expectLowerOnceExact(personaWindow(), crashMatrices(), /*InjectBugs=*/true);
}

TEST(CompilerLowerOnceTest, SweptGridMatchesWithBugsOnAndOff) {
  expectLowerOnceExact(personaWindow(), sweptConfigs(), /*InjectBugs=*/true);
  expectLowerOnceExact(personaWindow(), sweptConfigs(), /*InjectBugs=*/false);
}

TEST(CompilerLowerOnceTest, FrontendRejectsGiveRejectedRows) {
  std::vector<std::string> Sources = {"int main(void) { return 0; }",
                                      "int main(void) { return x; }"};
  expectLowerOnceExact(Sources, sweptConfigs(), /*InjectBugs=*/true);
  Grid G = batchGrid(InProcessBackend(), Sources, sweptConfigs(), nullptr);
  EXPECT_EQ(G[0][1][0].Compile, BackendObservation::CompileStatus::Ok);
  EXPECT_EQ(G[1][1][0].Compile, BackendObservation::CompileStatus::Rejected);
  EXPECT_EQ(G[1][1].size(), 2u);
}

TEST(CompilerLowerOnceTest, OptLevelWhereEveryConfigCrashesRunsNoPipeline) {
  // x << x trips clang-sim's backend splitter from -O1 on, in both machine
  // modes, so no O3 config survives its bug hooks.
  const std::string Source = "int main(void) {\n"
                             "  int x = spe_input();\n"
                             "  int y = x << x;\n"
                             "  y = y + 2 * 3;\n"
                             "  return y - x;\n"
                             "}\n";
  std::vector<CompilerConfig> Configs;
  for (unsigned Opt : {0u, 3u})
    for (bool M64 : {true, false})
      Configs.push_back({Persona::ClangSim, 39, Opt, M64, {"2\n"}});
  expectLowerOnceExact({Source}, Configs, /*InjectBugs=*/true);

  CoverageRegistry Cov = catalogRegistry();
  Grid G = batchGrid(InProcessBackend(), {Source}, Configs, &Cov);
  for (size_t C = 0; C < Configs.size(); ++C)
    EXPECT_EQ(G[0][C][0].Compile,
              Configs[C].OptLevel == 0
                  ? BackendObservation::CompileStatus::Ok
                  : BackendObservation::CompileStatus::Crashed);
  for (const std::string &Point : Cov.hitSet())
    EXPECT_EQ(Point.rfind("irgen.", 0), 0u)
        << "the O3 pipeline ran for crashed configs: " << Point;

  // Not vacuous: without the bugs the O3 pipeline does hit pass points.
  CoverageRegistry Clean = catalogRegistry();
  batchGrid(InProcessBackend(/*InjectBugs=*/false), {Source}, Configs,
            &Clean);
  EXPECT_GT(Clean.hitPoints(), Cov.hitPoints());
}

TEST(CompilerLowerOnceTest, WrongCodeUnderOneConfigOfAnOptLevel) {
  // v / v is folded to 1 by clang-sim at -O2 (and not by gcc-sim 48), so
  // the two O2 configs share one optimized module but not its mutilation.
  const std::string Source = "int main(void) {\n"
                             "  int v = spe_input();\n"
                             "  int w = v / v;\n"
                             "  printf(\"%d\\n\", w);\n"
                             "  return w + 4;\n"
                             "}\n";
  const std::vector<std::string> Sweep = {"0\n", "5\n"};
  std::vector<CompilerConfig> Configs = {
      {Persona::GccSim, 48, 2, true, Sweep},
      {Persona::ClangSim, 39, 2, true, Sweep},
      {Persona::GccSim, 48, 2, false, Sweep}};
  expectLowerOnceExact({Source}, Configs, /*InjectBugs=*/true);

  Grid G = batchGrid(InProcessBackend(), {Source}, Configs, nullptr);
  // Input 0: the clean module divides by zero, the mutilated one does not.
  EXPECT_EQ(G[0][0][0].Exec, BackendObservation::ExecStatus::Trap);
  EXPECT_EQ(G[0][1][0].Exec, BackendObservation::ExecStatus::Ok);
  EXPECT_EQ(G[0][1][0].ExitCode, 5);
  EXPECT_EQ(G[0][2][0].Exec, BackendObservation::ExecStatus::Trap);
  EXPECT_FALSE(G[0][1][0].FiredBugs.empty());
  EXPECT_TRUE(G[0][0][0].FiredBugs.empty());
}

TEST(CompilerLowerOnceTest, SingleConfigEntryPointsMatchTheGrid) {
  const std::vector<std::string> &Window = personaWindow();
  std::vector<std::string> Sources(Window.begin(), Window.begin() + 40);
  std::vector<CompilerConfig> Configs = sweptConfigs();
  InProcessBackend Backend;
  Grid G = batchGrid(Backend, Sources, Configs, nullptr);
  size_t Mismatches = 0;
  for (size_t V = 0; V < Sources.size(); ++V) {
    std::unique_ptr<ASTContext> Ctx = parseAndAnalyze(Sources[V]);
    ASSERT_TRUE(Ctx);
    for (size_t C = 0; C < Configs.size(); ++C) {
      Grid Rows = {{Backend.runSweep(Sources[V], Configs[C],
                                     configInputs(Configs[C]), nullptr)}};
      Grid Single;
      Single.emplace_back();
      Single[0].emplace_back();
      for (const std::string &In : configInputs(Configs[C]))
        Single[0][0].push_back(
            Backend.runWithInput(Sources[V], Configs[C], In, nullptr));
      Grid On;
      On.emplace_back();
      On[0].emplace_back();
      for (const std::string &In : configInputs(Configs[C]))
        On[0][0].push_back(Backend.runOn(*Ctx, Configs[C], nullptr, In));
      Grid Want = {{G[V][C]}};
      std::vector<std::string> One = {Sources[V]};
      std::vector<CompilerConfig> Cfg = {Configs[C]};
      Mismatches += compareGrids(Rows, Want, One, Cfg);
      Mismatches += compareGrids(Single, Want, One, Cfg);
      Mismatches += compareGrids(On, Want, One, Cfg);
    }
  }
  EXPECT_EQ(Mismatches, 0u);
}

TEST(CompilerLowerOnceTest, ConcurrentBatchesOnOneBackendStayPerCall) {
  // Shard workers call one const backend concurrently, each with its own
  // coverage registry; the per-call caches must not be shared.
  const std::vector<std::string> &Window = personaWindow();
  std::vector<std::string> Sources(Window.begin(), Window.begin() + 64);
  std::vector<CompilerConfig> Configs = sweptConfigs();
  InProcessBackend Backend;
  CoverageRegistry SerialCov = catalogRegistry();
  Grid Serial = batchGrid(Backend, Sources, Configs, &SerialCov);

  constexpr unsigned Workers = 4;
  std::vector<Grid> Got(Workers);
  std::vector<CoverageRegistry> Covs(Workers, catalogRegistry());
  std::vector<std::thread> Threads;
  for (unsigned W = 0; W < Workers; ++W)
    Threads.emplace_back([&, W] {
      Got[W] = batchGrid(Backend, Sources, Configs, &Covs[W]);
    });
  for (std::thread &T : Threads)
    T.join();
  for (unsigned W = 0; W < Workers; ++W) {
    EXPECT_EQ(compareGrids(Got[W], Serial, Sources, Configs), 0u);
    EXPECT_EQ(Covs[W].hitSet(), SerialCov.hitSet());
  }
}
