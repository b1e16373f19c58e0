//===- campaign_bench/Workloads.cpp - the benchmark's named workloads -----===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "support/RandomEngine.h"

#include <filesystem>
#include <sstream>

using namespace spe;
using namespace spe::campaign_bench;

namespace fs = std::filesystem;

namespace {

/// The sweep-sensitive seed of bench/bench_matrix_throughput.cpp: spe_input
/// makes each sweep input a different behavior to compare.
const char *SpeInputSeed = "int main(void) {\n"
                           "  int a = spe_input();\n"
                           "  int b = 3, c = 1;\n"
                           "  c = c - b;\n"
                           "  if (a > c)\n"
                           "    c = a - c;\n"
                           "  return c * 10 + b;\n"
                           "}\n";

std::vector<CompilerConfig> concat(std::vector<CompilerConfig> A,
                                   const std::vector<CompilerConfig> &B) {
  A.insert(A.end(), B.begin(), B.end());
  return A;
}

} // namespace

bool campaign_bench::makeSpec(const std::string &Name, uint64_t Seed,
                              WorkloadSpec &Out) {
  Out = WorkloadSpec();
  Out.Name = Name;
  Out.Seed = Seed;
  if (Name == "persona-sweep") {
    Out.Kind = WorkloadKind::PersonaSweep;
    Out.CorpusCount = 40;
    Out.CorpusBase = 2000;
    Out.Corpus.UninitLocalProb = 0.6;
  } else if (Name == "loop-call") {
    Out.Kind = WorkloadKind::LoopCall;
    Out.CorpusCount = 12;
    Out.CorpusBase = 8000;
    Out.Corpus.UninitLocalProb = 0.6;
    Out.Corpus.BoundedLoopProb = 0.6;
    Out.Corpus.RichHelperProb = 0.6;
  } else if (Name == "external-matrix") {
    Out.Kind = WorkloadKind::ExternalMatrix;
    Out.SweepInputs = {"1\n", "7\n"};
    if (Seed != 0) {
      // Two distinct stdin values drawn from the seed.
      RandomEngine Rng(Seed);
      int64_t A = Rng.uniformInt(-50, 149);
      int64_t B = A;
      while (B == A)
        B = Rng.uniformInt(-50, 149);
      Out.SweepInputs = {std::to_string(A) + "\n", std::to_string(B) + "\n"};
    }
    return true;
  } else {
    return false;
  }
  return true;
}

void campaign_bench::resetWorkDir(const std::string &Dir) {
  std::error_code EC;
  fs::remove_all(Dir, EC);
  fs::create_directories(Dir, EC);
}

WorkloadInstance::WorkloadInstance(const WorkloadSpec &Spec,
                                   const std::string &Dir, Wiring W) {
  auto Path = [&](const std::string &Leaf) { return Dir + "/" + Leaf; };

  if (Spec.Kind != WorkloadKind::ExternalMatrix) {
    Seeds = Spec.Kind == WorkloadKind::PersonaSweep ? embeddedSeeds()
                                                    : std::vector<std::string>();
    std::vector<std::string> Gen =
        generateCorpus(Spec.CorpusBase, Spec.CorpusCount, Spec.Corpus);
    Seeds.insert(Seeds.end(), Gen.begin(), Gen.end());
  } else {
    Seeds = embeddedSeeds();
    Seeds.push_back(SpeInputSeed);
  }
  if (!Spec.defaultSeed()) {
    // Fisher-Yates under the workload seed.
    RandomEngine Rng(Spec.Seed);
    for (size_t I = Seeds.size(); I > 1; --I)
      std::swap(Seeds[I - 1], Seeds[Rng.uniformBelow(I)]);
  }

  switch (Spec.Kind) {
  case WorkloadKind::PersonaSweep: {
    Cache = std::make_unique<OracleCache>();
    const std::pair<Persona, unsigned> Versions[] = {{Persona::GccSim, 48},
                                                     {Persona::ClangSim, 39}};
    for (const auto &[P, V] : Versions) {
      std::string Label = P == Persona::GccSim ? "gcc48" : "clang39";
      HarnessOptions Opts;
      Opts.Configs = HarnessOptions::crashMatrix(P, V);
      Opts.VariantBudget = 400;
      Opts.Cache = Cache.get();
      Opts.Triage = true;
      if (W != Wiring::Replay) {
        Opts.CheckpointPath = Path("checkpoint-" + Label);
        Opts.OracleStorePath = Path("oracle.store");
      }
      if (W == Wiring::Production) {
        TelemetrySink::Options SO;
        SO.EventLogPath = Path("events-" + Label + ".jsonl");
        EventLogs.push_back(SO.EventLogPath);
        Sinks.push_back(std::make_unique<TelemetrySink>(SO));
        Feeds.push_back(std::make_unique<CampaignStatusFeed>(
            CampaignStatusFeed::Options{Path("status-" + Label + ".json"),
                                        250}));
        Feeds.back()->attachSink(Sinks.back().get());
        Opts.Telemetry = Sinks.back().get();
        Opts.Status = Feeds.back().get();
      }
      Options.push_back(std::move(Opts));
    }
    break;
  }
  case WorkloadKind::LoopCall: {
    HarnessOptions Opts;
    Opts.Configs = concat(HarnessOptions::crashMatrix(Persona::GccSim, 48),
                          HarnessOptions::crashMatrix(Persona::ClangSim, 36));
    Opts.VariantBudget = 200;
    Opts.VariantThreshold = 1'000'000'000'000'000'000ull;
    Opts.OracleMaxSteps = 100'000;
    Opts.PruneInvalid = true;
    Options.push_back(std::move(Opts));
    break;
  }
  case WorkloadKind::ExternalMatrix: {
    ExternalBackendOptions EB;
    EB.PoolWorkers = 2;
    EB.TempDir = Dir;
    if (W == Wiring::Replay) {
      BackendSink = std::make_unique<TelemetrySink>();
      EB.Telemetry = BackendSink.get();
    }
    External = std::make_unique<ExternalBackend>(EB);
    InProcess = std::make_unique<InProcessBackend>(true);
    HarnessOptions Opts;
    Opts.Backend = External.get();
    Opts.ExtraBackends = {InProcess.get()};
    Opts.Configs = {{Persona::GccSim, 70, 0, true, Spec.SweepInputs},
                    {Persona::GccSim, 70, 2, true, Spec.SweepInputs}};
    Opts.BatchSize = 64;
    Opts.VariantBudget = 64;
    Options.push_back(std::move(Opts));
    break;
  }
  }

  for (const HarnessOptions &Opts : Options)
    Harnesses.push_back(std::make_unique<DifferentialHarness>(Opts));
}

WorkloadInstance::~WorkloadInstance() = default;

bool WorkloadInstance::ready(std::string &Why) const {
  if (External && !External->available()) {
    Why = "host cc unavailable: " + External->unavailableReason();
    return false;
  }
  return true;
}

std::vector<CampaignResult> WorkloadInstance::run() const {
  std::vector<CampaignResult> Results;
  for (const auto &H : Harnesses)
    Results.push_back(H->runCampaign(Seeds));
  return Results;
}

uint64_t WorkloadInstance::eventLogBytes() const {
  uint64_t Bytes = 0;
  for (const std::string &P : EventLogs) {
    std::error_code EC;
    uintmax_t N = fs::file_size(P, EC);
    if (!EC)
      Bytes += N;
  }
  return Bytes;
}

std::string campaign_bench::outcomeText(
    const std::vector<CampaignResult> &Results) {
  std::ostringstream OS;
  for (size_t I = 0; I < Results.size(); ++I) {
    const CampaignResult &R = Results[I];
    OS << "campaign " << I << "\n";
    OS << "tested " << R.VariantsTested << "\n";
    OS << "ranks " << R.VariantsEnumerated + R.VariantsPruned << "\n";
    OS << "exec_timeouts " << R.ExecutionTimeouts << "\n";
    OS << "matrix_cells " << R.MatrixCellsCompared << "\n";
    OS << "unique_bugs";
    for (const auto &[Id, Bug] : R.UniqueBugs)
      OS << " " << Id;
    OS << "\n";
    for (const auto &[K, Bug] : R.RawFindings)
      OS << "raw " << K.BugId << " " << static_cast<int>(K.P) << " "
         << K.Version << " O" << K.OptLevel << " m" << (K.Mode64 ? 64 : 32)
         << " b" << K.BackendIdx << " i" << K.InputIdx << " " << K.Sig
         << "\n";
    for (const TriagedBug &T : R.Triaged)
      OS << "cluster " << T.Sig.str() << "\n";
  }
  return OS.str();
}
