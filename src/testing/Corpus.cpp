//===- testing/Corpus.cpp - c-torture-like test corpus -------------------===//

#include "testing/Corpus.h"

#include "support/RandomEngine.h"

#include <cassert>

using namespace spe;

namespace {

/// Emits one random program. All locals are initialized and loops are
/// bounded, so the seed itself is UB-free; enumeration variants may of
/// course introduce UB and are filtered by the oracle.
class ProgramGenerator {
public:
  ProgramGenerator(uint64_t Seed, const CorpusOptions &Opts)
      : Rng(Seed ^ 0x5be5eedULL), Opts(Opts) {}

  std::string generate();

private:
  std::string freshName(const char *Prefix) {
    return std::string(Prefix) + std::to_string(NameCounter++);
  }

  void line(const std::string &Text) {
    Out += std::string(Indent * 2, ' ');
    Out += Text;
    Out += '\n';
  }

  void pushScope() { ScopeSizes.push_back(IntVars.size()); }
  void popScope() {
    IntVars.resize(ScopeSizes.back());
    ScopeSizes.pop_back();
  }

  std::string constant() { return std::to_string(Rng.uniformInt(0, 9)); }

  std::string pickVar() {
    if (IntVars.empty())
      return constant();
    return IntVars[Rng.uniformBelow(IntVars.size())];
  }

  /// Small integer expression over visible variables; depth-bounded and
  /// overflow-shy (multiplications only by small constants, shifts masked).
  std::string expr(unsigned Depth) {
    if (Depth == 0 || Rng.chance(0.35))
      return Rng.chance(0.7) ? pickVar() : constant();
    switch (Rng.uniformBelow(8)) {
    case 0:
      return expr(Depth - 1) + " + " + expr(Depth - 1);
    case 1:
      return expr(Depth - 1) + " - " + expr(Depth - 1);
    case 2:
      return "(" + expr(Depth - 1) + ") * " +
             std::to_string(Rng.uniformInt(1, 3));
    case 3:
      return "(" + expr(Depth - 1) + ") / " +
             std::to_string(Rng.uniformInt(1, 9));
    case 4:
      return "(" + expr(Depth - 1) + ") % " +
             std::to_string(Rng.uniformInt(1, 9));
    case 5:
      return "(" + expr(Depth - 1) + " & 15) << " +
             std::to_string(Rng.uniformInt(0, 3));
    case 6:
      return "(" + expr(Depth - 1) + ") ^ (" + expr(Depth - 1) + ")";
    default:
      return "(" + expr(Depth - 1) + " > " + expr(Depth - 1) + " ? " +
             expr(Depth - 1) + " : " + expr(Depth - 1) + ")";
    }
  }

  std::string condition() {
    const char *Ops[] = {"<", ">", "<=", ">=", "==", "!="};
    return pickVar() + " " + Ops[Rng.uniformBelow(6)] + " " + expr(1);
  }

  void genAssignment() {
    if (IntVars.empty())
      return;
    std::string V = pickVar();
    if (Rng.chance(0.3)) {
      const char *Ops[] = {"+=", "-=", "^=", "|=", "&="};
      line(V + " " + Ops[Rng.uniformBelow(5)] + " " + expr(1) + ";");
    } else {
      line(V + " = " + expr(Rng.chance(0.4) ? 2 : 1) + ";");
    }
  }

  void genIf(unsigned Depth) {
    line("if (" + condition() + ") {");
    ++Indent;
    pushScope();
    if (Rng.chance(0.4)) {
      std::string N = freshName("n");
      line("int " + N + " = " + constant() + ";");
      IntVars.push_back(N);
    }
    genStmts(Rng.uniformInt(1, 2), Depth);
    popScope();
    --Indent;
    if (Rng.chance(0.5)) {
      line("} else {");
      ++Indent;
      pushScope();
      genStmts(1, Depth);
      popScope();
      --Indent;
    }
    line("}");
  }

  void genFor(unsigned Depth) {
    std::string I = freshName("i");
    line("for (int " + I + " = 0; " + I + " < " +
         std::to_string(Rng.uniformInt(2, 8)) + "; ++" + I + ") {");
    ++Indent;
    pushScope();
    IntVars.push_back(I);
    genStmts(Rng.uniformInt(1, 2), Depth);
    popScope();
    --Indent;
    line("}");
  }

  void genWhile(unsigned Depth) {
    std::string C = freshName("w");
    line("int " + C + " = " + std::to_string(Rng.uniformInt(1, 6)) + ";");
    IntVars.push_back(C);
    line("while (" + C + " > 0) {");
    ++Indent;
    pushScope();
    genStmts(1, Depth);
    popScope();
    line(C + " = " + C + " - 1;");
    --Indent;
    line("}");
  }

  /// A Patmos-style bounded loop: dedicated counter, literal trip bound,
  /// counter update pinned to the bottom of the body. Emitted as `while`
  /// or `do`/`while` -- the only corpus source of do-loops, whose body the
  /// CFG layer can prove must-execute. The seed always terminates; a
  /// variant that retargets the bottom update's hole may diverge and is
  /// excluded by the oracle as Timeout.
  void genBoundedLoop(unsigned Depth) {
    std::string C = freshName("b");
    line("int " + C + " = " + std::to_string(Rng.uniformInt(2, 5)) + ";");
    IntVars.push_back(C);
    bool UseDo = Rng.chance(0.5);
    line(UseDo ? "do {" : "while (" + C + " > 0) {");
    ++Indent;
    pushScope();
    genStmts(1, Depth);
    popScope();
    line(C + " = " + C + " - 1;");
    --Indent;
    line(UseDo ? "} while (" + C + " > 0);" : "}");
  }

  void genGoto() {
    // A forward goto skipping one statement; always terminates.
    std::string L = freshName("lab");
    std::string V = pickVar();
    line("goto " + L + ";");
    line(V + " = " + expr(1) + ";");
    line(L + ": ;");
  }

  void genPrintf() {
    line("printf(\"%d\\n\", " + pickVar() + ");");
  }

  void genPointerUse() {
    if (Pointers.empty())
      return;
    const std::string &P = Pointers[Rng.uniformBelow(Pointers.size())];
    if (Rng.chance(0.5))
      line("*" + P + " = " + expr(1) + ";");
    else if (!IntVars.empty())
      line(pickVar() + " = *" + P + " + " + constant() + ";");
  }

  void genArrayUse() {
    if (Arrays.empty())
      return;
    const std::string &A = Arrays[Rng.uniformBelow(Arrays.size())];
    std::string Index = Rng.chance(0.5)
                            ? std::to_string(Rng.uniformInt(0, 3))
                            : "(" + pickVar() + " & 3)";
    if (Rng.chance(0.5))
      line(A + "[" + Index + "] = " + expr(1) + ";");
    else if (!IntVars.empty())
      line(pickVar() + " = " + A + "[" + Index + "];");
  }

  void genStructUse() {
    if (StructVar.empty())
      return;
    if (Rng.chance(0.5))
      line(StructVar + ".x = " + expr(1) + ";");
    else if (!IntVars.empty())
      line(pickVar() + " = " + StructVar + ".x + " + StructVar + ".y;");
  }

  void genCall() {
    if (HelperName.empty() || IntVars.empty())
      return;
    line(pickVar() + " = " + HelperName + "(" + pickVar() + ", " + expr(1) +
         ");");
  }

  void genStmts(unsigned Count, unsigned Depth) {
    for (unsigned I = 0; I < Count; ++I) {
      double Roll = Rng.uniformReal();
      if (Roll < 0.42 || Depth == 0)
        genAssignment();
      else if (Roll < 0.52)
        genIf(Depth - 1);
      else if (Roll < 0.59)
        genFor(Depth - 1);
      else if (Roll < 0.64)
        genWhile(Depth - 1);
      else if (Roll < 0.72)
        genPointerUse();
      else if (Roll < 0.78)
        genArrayUse();
      else if (Roll < 0.83)
        genStructUse();
      else if (Roll < 0.88)
        genCall();
      else if (Roll < 0.93)
        genPrintf();
      else if (Roll < 0.93 + Opts.GotoProb)
        genGoto();
      else
        genAssignment();
    }
  }

  RandomEngine Rng;
  CorpusOptions Opts;
  std::string Out;
  unsigned Indent = 0;
  unsigned NameCounter = 0;
  std::vector<std::string> IntVars;
  std::vector<size_t> ScopeSizes;
  std::vector<std::string> Pointers;
  std::vector<std::string> Arrays;
  std::string StructVar;
  std::string HelperName;
};

std::string ProgramGenerator::generate() {
  bool UseStruct = Rng.chance(Opts.StructProb);
  bool UseHelper = Rng.chance(Opts.HelperFunctionProb);
  bool UsePointers = Rng.chance(Opts.PointerProb);
  bool UseArray = Rng.chance(Opts.ArrayProb);

  if (UseStruct) {
    line("struct rec { int x; int y; };");
    StructVar = "st0";
    line("struct rec " + StructVar + ";");
  }
  unsigned NumGlobals = static_cast<unsigned>(Rng.uniformInt(0, 2));
  for (unsigned I = 0; I < NumGlobals; ++I) {
    std::string G = freshName("g");
    line("int " + G + " = " + constant() + ";");
    IntVars.push_back(G);
  }

  // The rich-helper upgrade draws only inside the guard, so the historical
  // stream is untouched when the knob is off (same idiom as
  // UninitLocalProb below).
  bool RichHelper = UseHelper && Opts.RichHelperProb > 0.0 &&
                    Rng.chance(Opts.RichHelperProb);
  if (UseHelper) {
    HelperName = freshName("helper");
    pushScope();
    line("int " + HelperName + "(int q0, int q1) {");
    ++Indent;
    IntVars.push_back("q0");
    IntVars.push_back("q1");
    std::string H = freshName("h");
    line("int " + H + " = " + constant() + ";");
    IntVars.push_back(H);
    std::string Saved = HelperName;
    HelperName.clear(); // No recursion from the helper.
    if (RichHelper) {
      // An uninitialized scalar local of the helper's own, never used by
      // the seed, plus a bounded loop. Together with the guaranteed call
      // from main (below) this is the pattern only the interprocedural
      // CFG layer can prune: the helper is must-called, so a definite
      // read retargeted onto the uninitialized local is UB in every
      // accepted execution.
      line("int " + freshName("z") + ";");
      genBoundedLoop(1);
    }
    genStmts(Rng.uniformInt(1, 2), 1);
    HelperName = Saved;
    line("return " + expr(1) + ";");
    --Indent;
    line("}");
    popScope();
  }

  line("int main(void) {");
  ++Indent;
  pushScope();
  unsigned NumLocals = static_cast<unsigned>(Rng.uniformInt(1, 3));
  std::string FirstLocal;
  for (unsigned I = 0; I < NumLocals; ++I) {
    std::string V = freshName("a");
    line("int " + V + " = " + constant() + ";");
    IntVars.push_back(V);
    if (I == 0)
      FirstLocal = V;
    // Optional c-torture-style uninitialized declaration, placed right
    // after the first local so its variable index is small enough for
    // early holes to reach under canonical (restricted-growth) ordering.
    // The guard keeps the RNG stream untouched when the knob is off, so
    // the historical corpus is reproduced bit for bit. The variable is
    // deliberately never used by the seed (the seed stays UB-free); it
    // only widens the candidate sets, and the expression-initialized
    // locals after it give the enumeration definite reads that can land
    // on it -- which the oracle rejects and the def-before-use pruning
    // layer skips without execution.
    if (I == 0 && Opts.UninitLocalProb > 0.0 &&
        Rng.chance(Opts.UninitLocalProb)) {
      line("int " + freshName("z") + ";");
      unsigned NumExprLocals = static_cast<unsigned>(Rng.uniformInt(1, 2));
      for (unsigned J = 0; J < NumExprLocals; ++J) {
        std::string E = freshName("e");
        line("int " + E + " = " + expr(1) + ";");
        IntVars.push_back(E);
      }
    }
  }
  if (RichHelper) {
    // Unconditional top-level call: every variant of every skeleton keeps
    // this call, so the helper is must-called and its unit's def-before-use
    // facts hold program-wide.
    line(FirstLocal + " = " + HelperName + "(" + FirstLocal + ", " +
         constant() + ");");
  }
  if (Rng.chance(Opts.ExtraTypeProb)) {
    std::string V = freshName("u");
    line("unsigned " + V + " = " + constant() + "u;");
    // Unsigned locals join expressions via their own statements only; they
    // are not added to IntVars so hole types stay coherent.
    line(V + " = " + V + " + " + constant() + "u;");
  }
  if (UsePointers && !IntVars.empty()) {
    std::string P0 = freshName("p");
    line("int *" + P0 + " = &" + pickVar() + ";");
    Pointers.push_back(P0);
    if (Rng.chance(0.5)) {
      std::string P1 = freshName("p");
      line("int *" + P1 + " = &" + pickVar() + ";");
      Pointers.push_back(P1);
    }
  }
  if (UseArray) {
    std::string A = freshName("t");
    line("int " + A + "[4] = {" + constant() + ", " + constant() + ", " +
         constant() + ", " + constant() + "};");
    Arrays.push_back(A);
  }

  genStmts(static_cast<unsigned>(
               Rng.uniformInt(Opts.MinStmts, Opts.MaxStmts)),
           2);
  if (Opts.BoundedLoopProb > 0.0 && Rng.chance(Opts.BoundedLoopProb)) {
    genBoundedLoop(1);
    // A definite read after the loop: on the straight-line-prefix analysis
    // this point was unprovable; the CFG layer sees the post-loop block on
    // every entry-to-exit path and prunes reads of still-untouched
    // uninitialized locals here.
    genAssignment();
  }
  line("return " + pickVar() + ";");
  popScope();
  --Indent;
  line("}");
  return Out;
}

} // namespace

std::string spe::generateCorpusProgram(uint64_t Seed,
                                       const CorpusOptions &Opts) {
  ProgramGenerator Gen(Seed, Opts);
  return Gen.generate();
}

std::vector<std::string> spe::generateCorpus(uint64_t Base, unsigned Count,
                                             const CorpusOptions &Opts) {
  std::vector<std::string> Result;
  Result.reserve(Count);
  for (unsigned I = 0; I < Count; ++I)
    Result.push_back(generateCorpusProgram(Base + I, Opts));
  return Result;
}

const std::vector<std::string> &spe::embeddedSeeds() {
  static const std::vector<std::string> Seeds = {
      // Figure 2 neighborhood: two pointers, two objects; enumeration can
      // unify the pointees, producing the aliasing pattern.
      "int a = 0;\n"
      "int b = 0;\n"
      "int main(void) {\n"
      "  int *p = &a, *q = &b;\n"
      "  *p = 1;\n"
      "  *q = 2;\n"
      "  return a + b;\n"
      "}\n",
      // Figure 3 neighborhood: nested conditionals over two scrutinees;
      // unifying e and d makes both arms structurally identical.
      "struct s { char c[1]; };\n"
      "struct s a, b, c;\n"
      "int d; int e;\n"
      "int main(void) {\n"
      "  e ? (e == 0 ? b : c).c : (d == 0 ? b : c).c;\n"
      "  return d + e;\n"
      "}\n",
      // Figure 1 skeleton: subtraction chains whose unification produces
      // x - x and self-comparisons.
      "int main(void) {\n"
      "  int a = 3, b = 1;\n"
      "  b = b - a;\n"
      "  if (a > b)\n"
      "    a = a - b;\n"
      "  return a * 10 + b;\n"
      "}\n",
      // Figure 11(d) neighborhood: backward goto with an address-taken
      // local whose lifetime crosses the jump.
      "int main(void) {\n"
      "  int *p = 0;\n"
      "  int done = 0;\n"
      "trick:\n"
      "  if (done) return *p;\n"
      "  int x = 0;\n"
      "  p = &x;\n"
      "  done = 1;\n"
      "  goto trick;\n"
      "}\n",
      // Loop nest whose bound/induction unification triggers the SCEV-ish
      // performance bugs and the loop-verifier crash.
      "int main(void) {\n"
      "  int n = 6, m = 3, acc = 0;\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    for (int j = 0; j < m; ++j)\n"
      "      acc += i - j;\n"
      "  }\n"
      "  return acc;\n"
      "}\n",
      // Division / remainder chains: unification produces v / v.
      "int main(void) {\n"
      "  int x = 8, y = 2;\n"
      "  int q = x / y;\n"
      "  int r = x % y;\n"
      "  return q * 10 + r;\n"
      "}\n",
      // Shift patterns: unification produces v << v.
      "int main(void) {\n"
      "  int v = 3, s = 1;\n"
      "  int r = v << s;\n"
      "  return r >> s;\n"
      "}\n",
      // Call with two arguments; unification repeats one variable.
      "int add(int p, int q) { return p + q; }\n"
      "int mul(int p, int q) { return p * q; }\n"
      "int main(void) {\n"
      "  int x = 2, y = 5;\n"
      "  return add(x, y) + mul(x, y);\n"
      "}\n",
      // Struct-member self-assignment neighborhood.
      "struct rec { int x; int y; };\n"
      "struct rec r;\n"
      "int main(void) {\n"
      "  int v = 4, w = 2;\n"
      "  r.x = v;\n"
      "  r.y = w;\n"
      "  v = r.x;\n"
      "  return v + r.y;\n"
      "}\n",
      // Array indexing: unification produces t[t-like] patterns via the
      // index variable.
      "int main(void) {\n"
      "  int t[4] = {1, 2, 3, 4};\n"
      "  int i = 2, v = 0;\n"
      "  v = t[i & 3];\n"
      "  t[v & 3] = i;\n"
      "  return t[0] + t[1] + t[2] + t[3];\n"
      "}\n",
  };
  return Seeds;
}
