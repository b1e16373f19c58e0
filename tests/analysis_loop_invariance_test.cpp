//===- tests/analysis_loop_invariance_test.cpp - never-exiting loops ------===//
//
// The shared "once entered, never exits" loop predicate
// (analysis/LoopInvariance.h) and its two clients:
//
//   * the reference interpreter, whose Ok verdicts must stay exact: every
//     aliasing shape the predicate must see through keeps its Ok verdict,
//     proven-stuck loops fail fast with "loop never exits", shapes the
//     predicate cannot prove still run out the step budget, and UB on the
//     first iteration is still reported as UB;
//   * the reducer's bounded-loop guard, which keeps `while (0)` bounded.
//
//===----------------------------------------------------------------------===//

#include "analysis/LoopInvariance.h"
#include "compiler/Backend.h"
#include "interp/Interpreter.h"
#include "reduce/BugRepro.h"
#include "reduce/SkeletonReducer.h"
#include "triage/BugSignature.h"

#include "gtest/gtest.h"

#include <memory>

using namespace spe;

namespace {

ExecResult run(const std::string &Source, uint64_t MaxSteps = 2'000'000) {
  std::unique_ptr<ASTContext> Ctx = parseAndAnalyze(Source);
  EXPECT_TRUE(Ctx) << Source;
  if (!Ctx)
    return {};
  InterpOptions Opts;
  Opts.MaxSteps = MaxSteps;
  return interpret(*Ctx, Opts);
}

/// The first while/do/for statement of main, in pre-order.
const Stmt *firstLoop(const Stmt *S) {
  if (!S)
    return nullptr;
  switch (S->kind()) {
  case Stmt::Kind::While:
  case Stmt::Kind::Do:
  case Stmt::Kind::For:
    return S;
  case Stmt::Kind::Compound:
    for (const Stmt *Child : cast<CompoundStmt>(S)->body())
      if (const Stmt *L = firstLoop(Child))
        return L;
    return nullptr;
  case Stmt::Kind::If:
    return firstLoop(cast<IfStmt>(S)->thenStmt());
  case Stmt::Kind::Label:
    return firstLoop(cast<LabelStmt>(S)->sub());
  default:
    return nullptr;
  }
}

/// loopNeverExits on the first loop of \p Source's main.
bool firstLoopNeverExits(const std::string &Source) {
  std::unique_ptr<ASTContext> Ctx = parseAndAnalyze(Source);
  EXPECT_TRUE(Ctx) << Source;
  if (!Ctx)
    return false;
  const Stmt *Loop = firstLoop(Ctx->findFunction("main")->body());
  EXPECT_TRUE(Loop) << Source;
  return Loop && loopNeverExits(Loop);
}

void expectOk7(const std::string &Source) {
  EXPECT_FALSE(firstLoopNeverExits(Source)) << Source;
  ExecResult R = run(Source);
  EXPECT_EQ(R.Status, ExecStatus::Ok) << R.Message << "\n" << Source;
  EXPECT_EQ(R.ExitCode, 7) << Source;
}

void expectNeverExits(const std::string &Source) {
  EXPECT_TRUE(firstLoopNeverExits(Source)) << Source;
  ExecResult R = run(Source);
  EXPECT_EQ(R.Status, ExecStatus::Timeout) << Source;
  EXPECT_EQ(R.Message, "loop never exits") << Source;
}

/// The predicate cannot prove the loop stuck: it runs out the budget.
void expectBudgetTimeout(const std::string &Source) {
  EXPECT_FALSE(firstLoopNeverExits(Source)) << Source;
  ExecResult R = run(Source, 10'000);
  EXPECT_EQ(R.Status, ExecStatus::Timeout) << Source;
  EXPECT_EQ(R.Message, "step budget exhausted") << Source;
}

} // namespace

//===----------------------------------------------------------------------===//
// Aliasing the predicate must see through: the loop exits, verdict Ok
//===----------------------------------------------------------------------===//

TEST(LoopInvarianceTest, PointerSubscriptStoreToConditionArrayIsOpaque) {
  // `p[0]` stores into `a` through a pointer-typed base.
  expectOk7("int main(void) {\n"
            "  int a[2];\n"
            "  int *p = a;\n"
            "  int i = 0;\n"
            "  a[0] = 0;\n"
            "  while (a[0] == 0) {\n"
            "    i = i + 1;\n"
            "    if (i == 3) p[0] = 1;\n"
            "  }\n"
            "  return i + 4;\n"
            "}\n");
}

TEST(LoopInvarianceTest, PointerSubscriptReadInConditionIsOpaque) {
  // The condition reads `a[0]` through `p`; the body stores `a[0]`.
  expectOk7("int main(void) {\n"
            "  int a[2];\n"
            "  int *p = a;\n"
            "  int i = 0;\n"
            "  a[0] = 0;\n"
            "  while (p[0] == 0) {\n"
            "    i = i + 1;\n"
            "    if (i == 3) a[0] = 1;\n"
            "  }\n"
            "  return i + 4;\n"
            "}\n");
}

TEST(LoopInvarianceTest, SubscriptStoreThroughAddressOfScalarIsOpaque) {
  expectOk7("int main(void) {\n"
            "  int x = 0;\n"
            "  int *q = &x;\n"
            "  int i = 0;\n"
            "  while (x == 0) {\n"
            "    i = i + 1;\n"
            "    if (i == 3) q[0] = 1;\n"
            "  }\n"
            "  return i + 4;\n"
            "}\n");
}

TEST(LoopInvarianceTest, CallThatStoresTheConditionVariableExits) {
  expectOk7("int g;\n"
            "void bump(void) { g = g + 1; }\n"
            "int main(void) {\n"
            "  while (g < 7) {\n"
            "    bump();\n"
            "  }\n"
            "  return g;\n"
            "}\n");
}

//===----------------------------------------------------------------------===//
// Proven stuck: excluded in microseconds
//===----------------------------------------------------------------------===//

TEST(LoopInvarianceTest, RetargetedForStepNeverExits) {
  // The campaign's dominant divergence shape: SPE moved the counter update
  // onto another variable.
  expectNeverExits("int g0;\n"
                   "int main(void) {\n"
                   "  int i5;\n"
                   "  for (i5 = 0; i5 < 4; ++g0) {}\n"
                   "  return g0;\n"
                   "}\n");
}

TEST(LoopInvarianceTest, ShadowingDeclarationDoesNotStoreTheCondition) {
  expectNeverExits("int main(void) {\n"
                   "  int x = 0;\n"
                   "  while (x < 4) {\n"
                   "    int x = 5;\n"
                   "  }\n"
                   "  return x;\n"
                   "}\n");
}

TEST(LoopInvarianceTest, ForWithoutConditionNeverExits) {
  expectNeverExits("int main(void) {\n"
                   "  int x = 0;\n"
                   "  for (;;) {\n"
                   "    x = 1;\n"
                   "  }\n"
                   "  return x;\n"
                   "}\n");
}

TEST(LoopInvarianceTest, DoWhileIsCheckedAtItsFirstTrueCondition) {
  expectNeverExits("int main(void) {\n"
                   "  int x = 0;\n"
                   "  int y = 0;\n"
                   "  do {\n"
                   "    y = y + 1;\n"
                   "  } while (x < 4);\n"
                   "  return y;\n"
                   "}\n");
}

TEST(LoopInvarianceTest, SelfAssignmentIsNoStore) {
  // `g0 = g0` writes back the value g0 already holds.
  expectNeverExits("int g0 = 3;\n"
                   "int main(void) {\n"
                   "  int a6 = 0;\n"
                   "  while (g0 > 0) {\n"
                   "    g0 = g0;\n"
                   "    a6 = g0 - 1;\n"
                   "  }\n"
                   "  return a6;\n"
                   "}\n");
}

//===----------------------------------------------------------------------===//
// Not provable: the step budget still decides
//===----------------------------------------------------------------------===//

TEST(LoopInvarianceTest, CallInBodyDisablesDetection) {
  expectBudgetTimeout("int g;\n"
                      "void touch(void) { g = 1; }\n"
                      "int main(void) {\n"
                      "  int x = 0;\n"
                      "  while (x < 4) {\n"
                      "    touch();\n"
                      "  }\n"
                      "  return x;\n"
                      "}\n");
}

TEST(LoopInvarianceTest, BreakInsideInnerLoopDisablesDetection) {
  // The break only leaves the inner loop, so the outer loop is in fact
  // stuck; the predicate stays conservative about any break in the body.
  expectBudgetTimeout("int main(void) {\n"
                      "  int x = 0;\n"
                      "  int y = 0;\n"
                      "  while (x < 4) {\n"
                      "    while (1) {\n"
                      "      break;\n"
                      "    }\n"
                      "    y = 1;\n"
                      "  }\n"
                      "  return y;\n"
                      "}\n");
}

TEST(LoopInvarianceTest, SelfAssignmentThroughSubscriptOrPointerIsAStore) {
  // Only a named variable assigned to itself is exempt: `a[i] = a[i]` and
  // `*p = *p` still count as stores.
  expectBudgetTimeout("int main(void) {\n"
                      "  int a[2];\n"
                      "  int i = 0;\n"
                      "  a[0] = 1;\n"
                      "  while (a[0] > 0) {\n"
                      "    a[i] = a[i];\n"
                      "  }\n"
                      "  return i;\n"
                      "}\n");
  expectBudgetTimeout("int main(void) {\n"
                      "  int x = 1;\n"
                      "  int *p = &x;\n"
                      "  while (x > 0) {\n"
                      "    *p = *p;\n"
                      "  }\n"
                      "  return x;\n"
                      "}\n");
}

//===----------------------------------------------------------------------===//
// UB on the first iteration stays UB
//===----------------------------------------------------------------------===//

TEST(LoopInvarianceTest, FirstIterationUndefinedBehaviorIsStillUB) {
  const std::string Source = "int main(void) {\n"
                             "  int x = 0;\n"
                             "  int y;\n"
                             "  while (x < 4) {\n"
                             "    y = y + 1;\n"
                             "  }\n"
                             "  return y;\n"
                             "}\n";
  EXPECT_TRUE(firstLoopNeverExits(Source));
  ExecResult R = run(Source);
  EXPECT_EQ(R.Status, ExecStatus::UndefinedBehavior) << R.Message;
}

//===----------------------------------------------------------------------===//
// Reducer guard
//===----------------------------------------------------------------------===//

TEST(LoopInvarianceTest, ReducerGuardKeepsLiteralZeroLoopsBounded) {
  // `while (0)` satisfies the predicate vacuously (nothing stores its
  // condition) but is never entered; the guard must let every probe that
  // keeps it through to the oracle.
  const std::string Witness = "int main(void)\n{\n"
                              "  int x = 1;\n"
                              "  int y = 2;\n"
                              "  while (0)\n"
                              "  {\n"
                              "  }\n"
                              "  x = y > 0 ? x : x;\n"
                              "  return x;\n}\n";
  ASSERT_TRUE(firstLoopNeverExits(Witness));
  ReproSpec Spec;
  Spec.Config.P = Persona::GccSim;
  Spec.Config.Version = 70;
  Spec.Config.OptLevel = 0;
  Spec.Config.Mode64 = true;
  Spec.Effect = BugEffect::Crash;
  Spec.SignatureKey = normalizeSignature(
      BugEffect::Crash,
      "internal compiler error: in operand_equal_p, at fold-const.c:2977");

  ReductionOutcome Out = SkeletonReducer().reduce(Witness, Spec);
  EXPECT_EQ(Out.UnboundedLoopProbesRejected, 0u);
  EXPECT_EQ(Out.Oracle.TimeoutRuns, 0u);
  EXPECT_LT(Out.TokensAfter, Out.TokensBefore);
  EXPECT_TRUE(ReproOracle(Spec).reproduces(Out.Reduced));
}
