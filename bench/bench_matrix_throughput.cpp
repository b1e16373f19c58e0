//===- bench/bench_matrix_throughput.cpp - matrix leverage --------------===//
//
// What does the N-way differential matrix buy per compile? A classic
// campaign extracts exactly one differential point -- one
// behavior-vs-oracle comparison -- from every (variant, config) compile.
// A matrix campaign re-executes each compiled artifact once per sweep
// input and compares every cell, so the same compile yields M points, and
// the N-way roster multiplies the *bug surface* (each backend is compared
// independently) without changing the per-compile arithmetic. This bench
// runs the same budgeted campaign classically and as a 3-backend x
// 5-input matrix, reports differential points per compile and the
// per-sweep amortization factor, checks batched/unbatched matrix identity
// on the way, and emits BENCH_matrix_throughput.json for the cross-PR
// trajectory.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "testing/Corpus.h"
#include "testing/Harness.h"

#include <chrono>

using namespace spe;
using namespace spe::bench;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// An InProcessBackend clone under its own identity, so the roster has
/// three distinguishable slots without needing host compilers installed.
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

HarnessOptions campaignOptions() {
  HarnessOptions Opts;
  Opts.Configs = HarnessOptions::crashMatrix(Persona::GccSim, 48);
  Opts.VariantBudget = 48;
  return Opts;
}

std::vector<std::string> campaignSeeds() {
  // One sweep-sensitive seed (spe_input feeds the comparison different
  // behavior per input) plus two embedded bug-neighborhood seeds.
  return {embeddedSeeds()[0],
          "int main(void) {\n"
          "  int a = spe_input();\n"
          "  int b = 3, c = 1;\n"
          "  c = c - b;\n"
          "  if (a > c)\n"
          "    c = a - c;\n"
          "  return c * 10 + b;\n"
          "}\n",
          embeddedSeeds()[2]};
}

const std::vector<std::string> SweepInputs = {"1\n", "2\n", "7\n", "-3\n",
                                              "100\n"};

} // namespace

int main() {
  BenchJson Json("matrix_throughput");
  std::vector<std::string> Seeds = campaignSeeds();
  bool Ok = true; // False once an identity check fails: exit 1.
  const size_t NConfigs = campaignOptions().Configs.size();

  header("Classic campaign (1 backend, 1 execution per compile)");
  uint64_t ClassicCompiles = 0;
  double ClassicPointsPerCompile = 0.0;
  {
    HarnessOptions Opts = campaignOptions();
    auto T0 = std::chrono::steady_clock::now();
    CampaignResult R = DifferentialHarness(Opts).runCampaign(Seeds);
    double Secs = secondsSince(T0);
    // One compile and one behavioral comparison per (variant, config).
    ClassicCompiles = R.VariantsTested * NConfigs;
    uint64_t Points = ClassicCompiles;
    ClassicPointsPerCompile =
        ClassicCompiles ? static_cast<double>(Points) /
                              static_cast<double>(ClassicCompiles)
                        : 0.0;
    std::printf("%llu variants, %llu compiles, %llu differential points "
                "(%.2f per compile) in %.3f s\n",
                static_cast<unsigned long long>(R.VariantsTested),
                static_cast<unsigned long long>(ClassicCompiles),
                static_cast<unsigned long long>(Points),
                ClassicPointsPerCompile, Secs);
    Json.put("classic_variants_tested", R.VariantsTested);
    Json.put("classic_compiles", ClassicCompiles);
    Json.put("classic_points", Points);
    Json.put("classic_points_per_compile", ClassicPointsPerCompile);
    Json.put("classic_seconds", Secs);
  }

  header("Matrix campaign (3 backends x 5 sweep inputs)");
  {
    CloneBackend B("minicc-cloneB", true), C("minicc-cloneC", true);
    HarnessOptions Opts = campaignOptions();
    for (CompilerConfig &Config : Opts.Configs)
      Config.ExecSweep = SweepInputs;
    Opts.ExtraBackends = {&B, &C};
    const uint64_t RosterN = 1 + Opts.ExtraBackends.size();

    auto T0 = std::chrono::steady_clock::now();
    CampaignResult R = DifferentialHarness(Opts).runCampaign(Seeds);
    double Secs = secondsSince(T0);

    // Result-neutrality of the batched matrix pipeline: the same campaign
    // at BatchSize 8 must be bit-identical.
    HarnessOptions Batched = Opts;
    Batched.BatchSize = 8;
    CampaignResult RB = DifferentialHarness(Batched).runCampaign(Seeds);
    if (!(RB == R)) {
      std::printf("!! BatchSize 8 changed the matrix campaign result -- "
                  "the numbers below measure a bug, not leverage\n");
      Json.put("batch_identity_violation", uint64_t(8));
      Ok = false;
    }

    uint64_t Compiles = R.VariantsTested * NConfigs * RosterN;
    uint64_t Points = R.MatrixCellsCompared;
    double PointsPerCompile =
        Compiles ? static_cast<double>(Points) /
                       static_cast<double>(Compiles)
                 : 0.0;
    double Amortization = ClassicPointsPerCompile > 0
                              ? PointsPerCompile / ClassicPointsPerCompile
                              : 0.0;
    std::printf("%llu variants, %llu compiles (%llu backends x %zu "
                "configs), %llu differential points (%.2f per compile, "
                "%llu sweep cells excluded) in %.3f s\n",
                static_cast<unsigned long long>(R.VariantsTested),
                static_cast<unsigned long long>(Compiles),
                static_cast<unsigned long long>(RosterN), NConfigs,
                static_cast<unsigned long long>(Points), PointsPerCompile,
                static_cast<unsigned long long>(R.SweepCellsExcluded),
                Secs);
    std::printf("per-sweep amortization: %.2fx differential points per "
                "compile vs classic\n",
                Amortization);

    Json.put("matrix_backends", RosterN);
    Json.put("matrix_sweep_inputs",
             static_cast<uint64_t>(SweepInputs.size()));
    Json.put("matrix_variants_tested", R.VariantsTested);
    Json.put("matrix_compiles", Compiles);
    Json.put("matrix_cells_compared", Points);
    Json.put("matrix_sweep_cells_excluded", R.SweepCellsExcluded);
    Json.put("matrix_points_per_compile", PointsPerCompile);
    Json.put("matrix_seconds", Secs);
    Json.put("amortization_vs_classic", Amortization);

    // Phase breakdown: where the matrix campaign's wall time actually
    // goes. A separate instrumented run (fresh sink) so the timed numbers
    // above stay uninstrumented.
    TelemetrySink Sink;
    HarnessOptions Instrumented = Opts;
    Instrumented.Telemetry = &Sink;
    CampaignResult RT = DifferentialHarness(Instrumented).runCampaign(Seeds);
    if (!(RT == R)) {
      std::printf("!! telemetry changed the matrix campaign result\n");
      Json.put("telemetry_identity_violation", uint64_t(1));
      Ok = false;
    }
    emitPhaseBreakdown(Json, RT.Telemetry);
  }

  Json.write();
  return Ok ? 0 : 1;
}
