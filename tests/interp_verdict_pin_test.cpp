//===- tests/interp_verdict_pin_test.cpp - oracle verdict pins -----------===//
//
// Pins the reference oracle's verdicts on the two corpora the campaigns
// spend their oracle time on: the two-persona corpus (embedded seeds plus
// the generated uninit-local corpus) and the loop/call corpus. For every
// seed under the harness's skip threshold, the first budgeted window of
// SPE variants (the ranks a campaign with VariantBudget = 400 tests) is
// rendered, re-parsed and interpreted exactly as the harness's oracle does.
//
// Each corpus pins its verdict counts and one FNV-1a hash over every
// (status, exit code, output) in rank order, plus a second hash over the
// Ok verdicts alone. Any change to the interpreter that moves a verdict --
// an Ok that becomes excluded, a changed exit code or output, or a UB that
// becomes a Timeout -- fails here, with the Ok-only hash telling an Ok
// change apart from a sub-status move among the excluded verdicts.
//
// The step budget is 100K (InterpOptions::MaxSteps), the loop/call
// campaigns' budget: every terminating variant of these small seeds
// finishes orders of magnitude below it, and diverging variants stay cheap.
//
//===----------------------------------------------------------------------===//

#include "compiler/Backend.h"
#include "interp/Interpreter.h"
#include "lang/Parser.h"
#include "persist/LineText.h"
#include "sema/Sema.h"
#include "skeleton/ProgramEnumerator.h"
#include "skeleton/SkeletonExtractor.h"
#include "skeleton/VariantRenderer.h"
#include "testing/Corpus.h"

#include "gtest/gtest.h"

using namespace spe;

namespace {

struct VerdictPin {
  uint64_t Seeds = 0;      ///< Seeds under the threshold (enumerated).
  uint64_t Variants = 0;   ///< Variants rendered.
  uint64_t Rejected = 0;   ///< Variants the oracle frontend rejects.
  uint64_t Ok = 0;
  uint64_t UB = 0;
  uint64_t Timeout = 0;
  uint64_t Unsupported = 0;
  uint64_t AllHash = 0; ///< FNV-1a over every (status, exit, output).
  uint64_t OkHash = 0;  ///< FNV-1a over the Ok (exit, output) pairs alone.
};

std::ostream &operator<<(std::ostream &OS, const VerdictPin &P) {
  return OS << "{seeds=" << P.Seeds << " variants=" << P.Variants
            << " rejected=" << P.Rejected << " ok=" << P.Ok
            << " ub=" << P.UB << " timeout=" << P.Timeout
            << " unsupported=" << P.Unsupported << " all=0x" << std::hex
            << P.AllHash << " ok_hash=0x" << P.OkHash << std::dec << "}";
}

/// Interprets the first \p Budget variants of every seed whose SPE count is
/// at most \p Threshold, the way the campaign oracle does.
VerdictPin pinVerdicts(const std::vector<std::string> &Seeds,
                       uint64_t Threshold, uint64_t Budget) {
  VerdictPin Pin;
  linetext::Fnv All, OkOnly;
  InterpOptions IO;
  IO.MaxSteps = 100'000;
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
      ExecResult R = interpret(*Ref, IO);
      switch (R.Status) {
      case ExecStatus::Ok:
        ++Pin.Ok;
        OkOnly.u64(static_cast<uint64_t>(R.ExitCode));
        OkOnly.str(R.Output);
        break;
      case ExecStatus::UndefinedBehavior:
        ++Pin.UB;
        break;
      case ExecStatus::Timeout:
        ++Pin.Timeout;
        break;
      case ExecStatus::Unsupported:
        ++Pin.Unsupported;
        break;
      }
      All.u64(static_cast<uint64_t>(R.Status));
      All.u64(static_cast<uint64_t>(R.ExitCode));
      All.str(R.Output);
    }
  }
  Pin.AllHash = All.H;
  Pin.OkHash = OkOnly.H;
  return Pin;
}

void expectPinned(const VerdictPin &Got, const VerdictPin &Want) {
  EXPECT_EQ(Got.Seeds, Want.Seeds);
  EXPECT_EQ(Got.Variants, Want.Variants);
  EXPECT_EQ(Got.Rejected, Want.Rejected);
  EXPECT_EQ(Got.Ok, Want.Ok) << "an Ok verdict moved";
  EXPECT_EQ(Got.OkHash, Want.OkHash) << "an Ok exit code or output changed";
  EXPECT_EQ(Got.UB, Want.UB) << "a UB verdict moved";
  EXPECT_EQ(Got.Timeout, Want.Timeout);
  EXPECT_EQ(Got.Unsupported, Want.Unsupported);
  EXPECT_EQ(Got.AllHash, Want.AllHash);
  if (::testing::Test::HasFailure())
    ADD_FAILURE() << "got " << Got;
}

} // namespace

TEST(InterpVerdictPinTest, PersonaCorpusVerdictsArePinned) {
  // The two-persona campaigns' corpus (campaign_bench persona-sweep,
  // bench_telemetry_overhead): embedded seeds + 40 generated seeds.
  CorpusOptions Opts;
  Opts.UninitLocalProb = 0.6;
  std::vector<std::string> Seeds = embeddedSeeds();
  std::vector<std::string> Gen = generateCorpus(2000, 40, Opts);
  Seeds.insert(Seeds.end(), Gen.begin(), Gen.end());

  VerdictPin Want;
  Want.Seeds = 21;
  Want.Variants = 3622;
  Want.Rejected = 0;
  Want.Ok = 2350;
  Want.UB = 1218;
  Want.Timeout = 54;
  Want.Unsupported = 0;
  Want.AllHash = 0xf4be41c88222a866ull;
  Want.OkHash = 0x57a8c82ae4386c3eull;
  expectPinned(pinVerdicts(Seeds, 10'000, 400), Want);
}

TEST(InterpVerdictPinTest, LoopCorpusVerdictsArePinned) {
  // The loop/call corpus of testing_validity_property_test: bounded
  // while/do loops and rich helpers, admitted whatever their SPE count.
  CorpusOptions Opts;
  Opts.UninitLocalProb = 0.6;
  Opts.BoundedLoopProb = 0.6;
  Opts.RichHelperProb = 0.6;
  std::vector<std::string> Seeds = generateCorpus(8000, 10, Opts);

  VerdictPin Want;
  Want.Seeds = 9;
  Want.Variants = 3328;
  Want.Rejected = 272;
  Want.Ok = 614;
  Want.UB = 1186;
  Want.Timeout = 1256;
  Want.Unsupported = 0;
  Want.AllHash = 0x5d7684e107090ba0ull;
  Want.OkHash = 0xb3019c334dddc042ull;
  expectPinned(pinVerdicts(Seeds, 1'000'000'000'000'000ull, 400), Want);
}
