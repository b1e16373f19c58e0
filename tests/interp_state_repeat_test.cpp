//===- tests/interp_state_repeat_test.cpp - repeated-state detection -----===//
//
// The reference interpreter and the MiniCC VM end a run whose state
// repeats (support/StateRepeat.h, DESIGN.md §17.5) with Timeout "state
// repeats" instead of running out the step budget. Every case runs at the
// default budgets (2M interpreter steps, 5M VM steps), so the detector is
// armed:
//
//   * caught: the persona goto shape, a loop calling a function with no
//     parameters or locals, a loop polling exhausted stdin;
//   * not caught, so the budget still decides: a wrapping unsigned
//     counter (in a local, in a global a callee bumps, and in a VM
//     register), a loop that prints on every trip, a loop that allocates on every trip (a body declaration
//     in the interpreter, a callee's slots in the VM);
//   * verdicts that must not move: a long terminating loop, UB on the
//     first iteration and long after arming, stdin that ends the loop
//     after a long poll.
//
//===----------------------------------------------------------------------===//

#include "compiler/Backend.h"
#include "compiler/Compiler.h"
#include "compiler/IR.h"
#include "interp/Interpreter.h"

#include "gtest/gtest.h"

#include <memory>

using namespace spe;

namespace {

ExecResult interp(const std::string &Source, const std::string &Input = "") {
  std::unique_ptr<ASTContext> Ctx = parseAndAnalyze(Source);
  EXPECT_TRUE(Ctx) << Source;
  if (!Ctx)
    return {};
  InterpOptions Opts;
  Opts.Input = Input;
  return interpret(*Ctx, Opts);
}

/// Compiles \p Source with MiniCC (no injected bugs) at \p OptLevel and
/// runs it on the VM.
VMResult vm(const std::string &Source, unsigned OptLevel,
            const std::string &Input = "") {
  std::unique_ptr<ASTContext> Ctx = parseAndAnalyze(Source);
  EXPECT_TRUE(Ctx) << Source;
  if (!Ctx)
    return {};
  CompilerConfig Config;
  Config.OptLevel = OptLevel;
  CompileResult C = MiniCompiler(Config, nullptr, false).compile(*Ctx);
  EXPECT_TRUE(C.ok()) << C.Error << "\n" << Source;
  VMOptions Opts;
  Opts.Input = Input;
  return executeModule(C.Module, Opts);
}

void expectInterp(const std::string &Source, ExecStatus Status,
                  const std::string &Message, const std::string &Input = "") {
  ExecResult R = interp(Source, Input);
  EXPECT_EQ(R.Status, Status) << R.Message << "\n" << Source;
  EXPECT_EQ(R.Message, Message) << Source;
  if (Status == ExecStatus::Timeout)
    EXPECT_EQ(R.ExitCode, 0);
}

void expectVM(const std::string &Source, VMStatus Status,
              const std::string &Message, const std::string &Input = "") {
  for (unsigned OptLevel : {0u, 3u}) {
    VMResult R = vm(Source, OptLevel, Input);
    EXPECT_EQ(R.Status, Status)
        << "-O" << OptLevel << " " << R.Message << "\n" << Source;
    EXPECT_EQ(R.Message, Message) << "-O" << OptLevel << "\n" << Source;
    if (Status == VMStatus::Timeout)
      EXPECT_EQ(R.ExitCode, 0);
  }
}

const char *const PersonaGoto = "int main(void) {\n"
                                "  int done = 0;\n"
                                "  printf(\"start\\n\");\n"
                                "trick:\n"
                                "  if (done) ;\n"
                                "  done = 1;\n"
                                "  goto trick;\n"
                                "}\n";

const char *const CallsTouch = "int g;\n"
                               "void touch(void) { g = 1; }\n"
                               "int main(void) {\n"
                               "  int x = 0;\n"
                               "  while (x < 4) touch();\n"
                               "  return x;\n"
                               "}\n";

const char *const PollsStdin = "int main(void) {\n"
                               "  while (spe_input() != 5) {}\n"
                               "  return 7;\n"
                               "}\n";

/// 40000 ones, then 5: PollsStdin polls long past the arm threshold with
/// nothing but the stdin cursor changing from trip to trip.
std::string longInputEndingIn5() {
  std::string Input;
  for (int I = 0; I < 40'000; ++I)
    Input += "1 ";
  return Input + "5";
}

const char *const UnsignedCounter = "int main(void) {\n"
                                    "  unsigned u = 1;\n"
                                    "  while (u != 0) u = u + 2;\n"
                                    "  return 0;\n"
                                    "}\n";

// Only memory changes from trip to trip: main's registers are the same.
const char *const CallsCounter = "unsigned g;\n"
                                 "void bump(void) { g = g + 1; }\n"
                                 "int main(void) {\n"
                                 "  int x = 0;\n"
                                 "  while (x < 4) bump();\n"
                                 "  return x;\n"
                                 "}\n";

const char *const PrintsEveryTrip = "int main(void) {\n"
                                    "  int x = 0;\n"
                                    "  while (x < 4) printf(\"a\");\n"
                                    "  return x;\n"
                                    "}\n";

const char *const DeclaresEveryTrip = "int g;\n"
                                      "void touch(void) { g = 1; }\n"
                                      "int main(void) {\n"
                                      "  int x = 0;\n"
                                      "  while (x < 4) {\n"
                                      "    int y = 1;\n"
                                      "    touch();\n"
                                      "  }\n"
                                      "  return x;\n"
                                      "}\n";

const char *const CalleeHasLocal = "int g;\n"
                                   "void touch(void) { int t = 1; g = t; }\n"
                                   "int main(void) {\n"
                                   "  int x = 0;\n"
                                   "  while (x < 4) touch();\n"
                                   "  return x;\n"
                                   "}\n";

// 200K trips: far past the arm threshold in both executors, and within the
// interpreter's 2M-step budget.
const char *const LongLoop = "int main(void) {\n"
                             "  int i;\n"
                             "  for (i = 0; i < 200000; ++i) {}\n"
                             "  return i - 199993;\n"
                             "}\n";

} // namespace

//===----------------------------------------------------------------------===//
// Reference interpreter
//===----------------------------------------------------------------------===//

TEST(InterpStateRepeatTest, PersonaGotoShapeRepeats) {
  ExecResult R = interp(PersonaGoto);
  EXPECT_EQ(R.Status, ExecStatus::Timeout);
  EXPECT_EQ(R.Message, "state repeats");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Output, "start\n"); // Exactly what the budget run prints.
}

TEST(InterpStateRepeatTest, LoopCallingAFunctionWithoutLocalsRepeats) {
  expectInterp(CallsTouch, ExecStatus::Timeout, "state repeats");
}

TEST(InterpStateRepeatTest, PollingExhaustedStdinRepeats) {
  expectInterp(PollsStdin, ExecStatus::Timeout, "state repeats", "1 2 3");
}

TEST(InterpStateRepeatTest, WrappingUnsignedCounterRunsOutTheBudget) {
  expectInterp(UnsignedCounter, ExecStatus::Timeout, "step budget exhausted");
}

TEST(InterpStateRepeatTest, LoopCallingACounterRunsOutTheBudget) {
  expectInterp(CallsCounter, ExecStatus::Timeout, "step budget exhausted");
}

TEST(InterpStateRepeatTest, PrintingEveryTripRunsOutTheBudget) {
  ExecResult R = interp(PrintsEveryTrip);
  EXPECT_EQ(R.Status, ExecStatus::Timeout);
  EXPECT_EQ(R.Message, "step budget exhausted");
  EXPECT_GT(R.Output.size(), 10'000u);
}

TEST(InterpStateRepeatTest, DeclaringEveryTripRunsOutTheBudget) {
  // Each trip allocates a fresh `y`, and block ids are observable, so no
  // two states are equal.
  expectInterp(DeclaresEveryTrip, ExecStatus::Timeout,
               "step budget exhausted");
}

TEST(InterpStateRepeatTest, LongTerminatingLoopStaysOk) {
  expectInterp(LongLoop, ExecStatus::Ok, "");
  EXPECT_EQ(interp(LongLoop).ExitCode, 7);
}

TEST(InterpStateRepeatTest, FirstIterationUndefinedBehaviorStaysUB) {
  expectInterp("int g;\n"
               "void touch(void) { g = 1; }\n"
               "int main(void) {\n"
               "  int x = 0;\n"
               "  int y;\n"
               "  while (x < 4) {\n"
               "    touch();\n"
               "    y = y + 1;\n"
               "  }\n"
               "  return y;\n"
               "}\n",
               ExecStatus::UndefinedBehavior,
               "read of uninitialized value from 'y'");
}

TEST(InterpStateRepeatTest, UndefinedBehaviorLongAfterArmingStaysUB) {
  // ~50K trips of a counter that never repeats, then signed overflow.
  expectInterp("int main(void) {\n"
               "  int i = 2147483647 - 50000;\n"
               "  while (i != 0) i = i + 1;\n"
               "  return 0;\n"
               "}\n",
               ExecStatus::UndefinedBehavior,
               "signed integer overflow in '+'");
}

TEST(InterpStateRepeatTest, StdinThatEndsTheLoopStaysOk) {
  ExecResult R = interp(PollsStdin, longInputEndingIn5());
  EXPECT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 7);
}

//===----------------------------------------------------------------------===//
// MiniCC VM, at -O0 and -O3
//===----------------------------------------------------------------------===//

TEST(VMStateRepeatTest, PersonaGotoShapeRepeats) {
  for (unsigned OptLevel : {0u, 3u}) {
    VMResult R = vm(PersonaGoto, OptLevel);
    EXPECT_EQ(R.Status, VMStatus::Timeout) << "-O" << OptLevel;
    EXPECT_EQ(R.Message, "state repeats") << "-O" << OptLevel;
    EXPECT_EQ(R.ExitCode, 0);
    EXPECT_EQ(R.Output, "start\n");
  }
}

TEST(VMStateRepeatTest, LoopCallingAFunctionWithoutLocalsRepeats) {
  expectVM(CallsTouch, VMStatus::Timeout, "state repeats");
}

TEST(VMStateRepeatTest, PollingExhaustedStdinRepeats) {
  expectVM(PollsStdin, VMStatus::Timeout, "state repeats", "1 2 3");
}

TEST(VMStateRepeatTest, BodyDeclarationRepeats) {
  // Unlike the interpreter, the VM allocates a function's slots once per
  // call, so a body declaration does not grow the block table.
  expectVM(DeclaresEveryTrip, VMStatus::Timeout, "state repeats");
}

TEST(VMStateRepeatTest, WrappingUnsignedCounterRunsOutTheBudget) {
  expectVM(UnsignedCounter, VMStatus::Timeout, "step budget exhausted");
}

TEST(VMStateRepeatTest, LoopCallingACounterRunsOutTheBudget) {
  expectVM(CallsCounter, VMStatus::Timeout, "step budget exhausted");
}

TEST(VMStateRepeatTest, PrintingEveryTripRunsOutTheBudget) {
  expectVM(PrintsEveryTrip, VMStatus::Timeout, "step budget exhausted");
}

TEST(VMStateRepeatTest, RegisterOnlyCounterRunsOutTheBudget) {
  // Hand-built IR whose loop keeps its counter in a register and never
  // touches memory: only the registers tell its states apart.
  //   b0: r0 = 0; br b1
  //   b1: r0 = r0 + 1; r1 = r0 != 0; condbr r1, b1, b2
  //   b2: ret r0
  ASTContext Ctx;
  const Type *U32 = Ctx.types().intType(32, false);
  IRInstr Zero{IROp::Const};
  Zero.Dst = 0;
  Zero.HasDst = true;
  Zero.Ty = U32;
  Zero.A = IROperand::constant(0, U32);
  IRInstr ToLoop{IROp::Br};
  ToLoop.Succ0 = 1;
  IRInstr Inc{IROp::Bin};
  Inc.Dst = 0;
  Inc.HasDst = true;
  Inc.Ty = U32;
  Inc.Bin = BinaryOp::Add;
  Inc.A = IROperand::reg(0, U32);
  Inc.B = IROperand::constant(1, U32);
  IRInstr NonZero = Inc;
  NonZero.Dst = 1;
  NonZero.Bin = BinaryOp::NE;
  NonZero.B = IROperand::constant(0, U32);
  IRInstr Back{IROp::CondBr};
  Back.A = IROperand::reg(1, U32);
  Back.Succ0 = 1;
  Back.Succ1 = 2;
  IRInstr Ret{IROp::Ret};
  Ret.A = IROperand::reg(0, U32);
  IRFunction Main;
  Main.Name = "main";
  Main.RetTy = Ctx.types().int32Type();
  Main.NumRegs = 2;
  Main.Blocks = {IRBlock{{Zero, ToLoop}}, IRBlock{{Inc, NonZero, Back}},
                 IRBlock{{Ret}}};
  IRModule M;
  M.Functions.push_back(Main);
  M.MainIndex = 0;
  VMResult R = executeModule(M);
  EXPECT_EQ(R.Status, VMStatus::Timeout);
  EXPECT_EQ(R.Message, "step budget exhausted");
}

TEST(VMStateRepeatTest, CalleeWithSlotsRunsOutTheBudget) {
  // Each call allocates the callee's slot.
  expectVM(CalleeHasLocal, VMStatus::Timeout, "step budget exhausted");
}

TEST(VMStateRepeatTest, LongTerminatingLoopStaysOk) {
  for (unsigned OptLevel : {0u, 3u}) {
    VMResult R = vm(LongLoop, OptLevel);
    EXPECT_EQ(R.Status, VMStatus::Ok) << "-O" << OptLevel << R.Message;
    EXPECT_EQ(R.ExitCode, 7);
  }
}

TEST(VMStateRepeatTest, StdinThatEndsTheLoopStaysOk) {
  for (unsigned OptLevel : {0u, 3u}) {
    VMResult R = vm(PollsStdin, OptLevel, longInputEndingIn5());
    EXPECT_EQ(R.Status, VMStatus::Ok) << "-O" << OptLevel << R.Message;
    EXPECT_EQ(R.ExitCode, 7);
  }
}
