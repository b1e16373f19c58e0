//===- tests/compiler_vm_verdict_pin_test.cpp - MiniCC VM verdict pins ----===//
//
// The MiniCC analogue of interp_verdict_pin_test: pins what the in-process
// backend makes of the two corpora the campaigns spend their time on. For
// every seed under the harness's skip threshold, the first budgeted window
// of SPE variants (VariantBudget = 400) is rendered and re-parsed, then
// compiled by MiniCompiler under each crashMatrix config of GccSim 48 and
// ClangSim 39 (injected bugs on, as in a campaign) and, when it compiles,
// executed by the VM.
//
// Each corpus pins the compile-status and exec-status counts and one
// FNV-1a hash over every (compile status, exec status, exit code, output)
// in rank order. Any change to the VM that moves an outcome -- a hang
// that ends differently, an exit code or an output byte -- fails here.
//
// The step budget is 100K (VMOptions::MaxSteps): every terminating variant
// of these small seeds finishes far below it, and the hangs stay cheap.
//
//===----------------------------------------------------------------------===//

#include "compiler/Backend.h"
#include "compiler/Compiler.h"
#include "lang/Parser.h"
#include "persist/LineText.h"
#include "sema/Sema.h"
#include "skeleton/ProgramEnumerator.h"
#include "skeleton/SkeletonExtractor.h"
#include "skeleton/VariantRenderer.h"
#include "testing/Corpus.h"
#include "testing/Harness.h"

#include "gtest/gtest.h"

using namespace spe;

namespace {

struct VMPin {
  uint64_t Seeds = 0;    ///< Seeds under the threshold (enumerated).
  uint64_t Variants = 0; ///< Variants rendered.
  uint64_t Rejected = 0; ///< Variants the frontend rejects.
  uint64_t CompileOk = 0;
  uint64_t Crashed = 0;
  uint64_t CompileRejected = 0;
  uint64_t ExecOk = 0;
  uint64_t Trap = 0;
  uint64_t Timeout = 0;
  uint64_t AllHash = 0; ///< FNV-1a over every (status, exit, output).
};

std::ostream &operator<<(std::ostream &OS, const VMPin &P) {
  return OS << "{seeds=" << P.Seeds << " variants=" << P.Variants
            << " rejected=" << P.Rejected << " compile_ok=" << P.CompileOk
            << " crashed=" << P.Crashed
            << " compile_rejected=" << P.CompileRejected
            << " exec_ok=" << P.ExecOk << " trap=" << P.Trap
            << " timeout=" << P.Timeout << " all=0x" << std::hex
            << P.AllHash << std::dec << "}";
}

/// Compiles and executes the first \p Budget variants of every seed whose
/// SPE count is at most \p Threshold under every config in \p Configs.
VMPin pinOutcomes(const std::vector<std::string> &Seeds, uint64_t Threshold,
                  uint64_t Budget, const std::vector<CompilerConfig> &Configs) {
  VMPin Pin;
  linetext::Fnv All;
  VMOptions VO;
  VO.MaxSteps = 100'000;
  for (const std::string &Seed : Seeds) {
    ASTContext Ctx;
    DiagnosticEngine Diags;
    if (!Parser::parse(Seed, Ctx, Diags)) {
      ADD_FAILURE() << "seed does not parse:\n" << Seed;
      continue;
    }
    Sema Analysis(Ctx, Diags);
    if (!Analysis.run()) {
      ADD_FAILURE() << "seed fails Sema:\n" << Seed;
      continue;
    }
    std::vector<SkeletonUnit> Units =
        SkeletonExtractor(Ctx, Analysis).extract();
    if (ProgramEnumerator(Units, SpeMode::Exact).countSpe() >
        BigInt(Threshold))
      continue;
    ++Pin.Seeds;
    ProgramCursor Cursor(Units, SpeMode::Exact);
    Cursor.setEnd(BigInt(Budget));
    VariantRenderer Renderer(Ctx, Units);
    std::string Source;
    while (const ProgramAssignment *PA = Cursor.next()) {
      ++Pin.Variants;
      Renderer.renderInto(*PA, Source);
      std::unique_ptr<ASTContext> Ref = parseAndAnalyze(Source);
      if (!Ref) {
        ++Pin.Rejected;
        All.u64(99);
        continue;
      }
      for (const CompilerConfig &Config : Configs) {
        CompileResult C = MiniCompiler(Config).compile(*Ref);
        All.u64(static_cast<uint64_t>(C.St));
        if (C.St == CompileResult::Status::Rejected) {
          ++Pin.CompileRejected;
          continue;
        }
        if (C.crashed()) {
          ++Pin.Crashed;
          All.str(C.CrashSignature);
          continue;
        }
        ++Pin.CompileOk;
        VMResult R = executeModule(C.Module, VO);
        switch (R.Status) {
        case VMStatus::Ok:
          ++Pin.ExecOk;
          break;
        case VMStatus::Trap:
          ++Pin.Trap;
          break;
        case VMStatus::Timeout:
          ++Pin.Timeout;
          break;
        }
        All.u64(static_cast<uint64_t>(R.Status));
        All.u64(static_cast<uint64_t>(R.ExitCode));
        All.str(R.Output);
      }
    }
  }
  Pin.AllHash = All.H;
  return Pin;
}

void expectPinned(const VMPin &Got, const VMPin &Want) {
  EXPECT_EQ(Got.Seeds, Want.Seeds);
  EXPECT_EQ(Got.Variants, Want.Variants);
  EXPECT_EQ(Got.Rejected, Want.Rejected);
  EXPECT_EQ(Got.CompileOk, Want.CompileOk);
  EXPECT_EQ(Got.Crashed, Want.Crashed);
  EXPECT_EQ(Got.CompileRejected, Want.CompileRejected);
  EXPECT_EQ(Got.ExecOk, Want.ExecOk);
  EXPECT_EQ(Got.Trap, Want.Trap);
  EXPECT_EQ(Got.Timeout, Want.Timeout);
  EXPECT_EQ(Got.AllHash, Want.AllHash) << "an outcome, exit code or output "
                                          "changed";
  if (::testing::Test::HasFailure())
    ADD_FAILURE() << "got " << Got;
}

/// The crash matrices of the campaigns' two personas.
std::vector<CompilerConfig> campaignConfigs() {
  std::vector<CompilerConfig> Configs =
      HarnessOptions::crashMatrix(Persona::GccSim, 48);
  std::vector<CompilerConfig> Clang =
      HarnessOptions::crashMatrix(Persona::ClangSim, 39);
  Configs.insert(Configs.end(), Clang.begin(), Clang.end());
  return Configs;
}

} // namespace

TEST(CompilerVMVerdictPinTest, PersonaCorpusOutcomesArePinned) {
  // The two-persona campaigns' corpus (campaign_bench persona-sweep,
  // bench_telemetry_overhead): embedded seeds + 40 generated seeds.
  CorpusOptions Opts;
  Opts.UninitLocalProb = 0.6;
  std::vector<std::string> Seeds = embeddedSeeds();
  std::vector<std::string> Gen = generateCorpus(2000, 40, Opts);
  Seeds.insert(Seeds.end(), Gen.begin(), Gen.end());

  VMPin Want;
  Want.Seeds = 21;
  Want.Variants = 3622;
  Want.Rejected = 0;
  Want.CompileOk = 28388;
  Want.Crashed = 588;
  Want.CompileRejected = 0;
  Want.ExecOk = 27824;
  Want.Trap = 128;
  Want.Timeout = 436;
  Want.AllHash = 0x49f4c8a4206ad9f2ull;
  expectPinned(pinOutcomes(Seeds, 10'000, 400, campaignConfigs()), Want);
}

TEST(CompilerVMVerdictPinTest, LoopCorpusOutcomesArePinned) {
  // The loop/call corpus of testing_validity_property_test.
  CorpusOptions Opts;
  Opts.UninitLocalProb = 0.6;
  Opts.BoundedLoopProb = 0.6;
  Opts.RichHelperProb = 0.6;
  std::vector<std::string> Seeds = generateCorpus(8000, 10, Opts);

  VMPin Want;
  Want.Seeds = 9;
  Want.Variants = 3328;
  Want.Rejected = 272;
  Want.CompileOk = 23648;
  Want.Crashed = 800;
  Want.CompileRejected = 0;
  Want.ExecOk = 12652;
  Want.Trap = 0;
  Want.Timeout = 10996;
  Want.AllHash = 0x11e9668e682e8971ull;
  expectPinned(pinOutcomes(Seeds, 1'000'000'000'000'000ull, 400,
                           campaignConfigs()),
               Want);
}
