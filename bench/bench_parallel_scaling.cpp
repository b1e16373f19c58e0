//===- bench/bench_parallel_scaling.cpp - cursor + campaign scaling ------===//
//
// Measures what the pull-based cursor refactor buys:
//
//   1. Differential-campaign throughput (variants/sec) at 1/2/4/8 worker
//      threads, sharded over the budgeted variant range per seed.
//   2. Cursor seek latency on Table-1-sized spaces: jumping to a random
//      BigInt rank by unranking, without stepping through any intervening
//      variant.
//   3. Raw cursor streaming rate (next() only, no compilation), serial vs
//      sharded, to isolate enumeration overhead from compile/execute cost.
//
// Speedups are bounded by the machine: the reported hardware_concurrency is
// part of the output, and shards are exact partitions, so the variant
// counts must agree across all thread counts.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "core/AssignmentCursor.h"
#include "support/RandomEngine.h"
#include "testing/Corpus.h"
#include "testing/Harness.h"

#include <chrono>
#include <thread>
#include <vector>

using namespace spe;
using namespace spe::bench;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

std::vector<std::string> campaignSeeds() {
  std::vector<std::string> Seeds = embeddedSeeds();
  CorpusOptions Opts;
  std::vector<std::string> Generated = generateCorpus(1000, 24, Opts);
  Seeds.insert(Seeds.end(), Generated.begin(), Generated.end());
  return Seeds;
}

/// \returns false when a thread count enumerated a different variant count.
bool benchCampaignScaling() {
  header("Campaign throughput vs worker threads");
  std::printf("hardware threads: %u\n",
              std::thread::hardware_concurrency());
  std::vector<std::string> Seeds = campaignSeeds();

  BenchJson Json("parallel_scaling");
  Json.put("hardware_threads",
           static_cast<uint64_t>(std::thread::hardware_concurrency()));
  Json.put("seeds", static_cast<uint64_t>(Seeds.size()));

  bool Ok = true;
  double BaselineRate = 0.0;
  uint64_t BaselineVariants = 0;
  std::printf("%-8s %-10s %-9s %-13s %s\n", "threads", "variants", "sec",
              "variants/sec", "speedup");
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    HarnessOptions Opts;
    Opts.Configs = HarnessOptions::crashMatrix(Persona::GccSim, 48);
    Opts.VariantBudget = 200;
    Opts.Threads = Threads;
    auto Start = std::chrono::steady_clock::now();
    CampaignResult Result = DifferentialHarness(Opts).runCampaign(Seeds);
    double Sec = secondsSince(Start);
    double Rate = static_cast<double>(Result.VariantsEnumerated) / Sec;
    if (Threads == 1) {
      BaselineRate = Rate;
      BaselineVariants = Result.VariantsEnumerated;
      Json.put("variants", Result.VariantsEnumerated);
      Json.put("variants_pruned", Result.VariantsPruned);
      Json.put("oracle_executions", Result.OracleExecutions);
      Json.put("unique_bugs",
               static_cast<uint64_t>(Result.UniqueBugs.size()));
    }
    Json.put("variants_per_sec_t" + std::to_string(Threads), Rate);
    std::printf("%-8u %-10llu %-9.3f %-13.0f %.2fx\n", Threads,
                static_cast<unsigned long long>(Result.VariantsEnumerated),
                Sec, Rate, Rate / BaselineRate);
    if (Result.VariantsEnumerated != BaselineVariants) {
      std::printf("  !! shard mismatch: %llu variants vs %llu at 1 thread\n",
                  static_cast<unsigned long long>(Result.VariantsEnumerated),
                  static_cast<unsigned long long>(BaselineVariants));
      Ok = false;
    }
  }
  Json.write();
  return Ok;
}

/// A Table-1-shaped skeleton: several type classes, a scope chain with
/// variables at every level, and dozens of holes -- the exact class count
/// runs to dozens of decimal digits.
AbstractSkeleton bigSkeleton() {
  AbstractSkeleton Sk;
  ScopeId Scope = AbstractSkeleton::rootScope();
  std::vector<ScopeId> Chain{Scope};
  for (unsigned Depth = 0; Depth < 4; ++Depth) {
    Scope = Sk.addScope(Scope);
    Chain.push_back(Scope);
  }
  for (TypeKey T = 0; T < 3; ++T) {
    for (ScopeId S : Chain) {
      Sk.addVariable("v" + std::to_string(T) + "_" + std::to_string(S), S, T);
      Sk.addVariable("w" + std::to_string(T) + "_" + std::to_string(S), S, T);
    }
    for (ScopeId S : Chain)
      for (unsigned H = 0; H < 8; ++H)
        Sk.addHole(S, T);
  }
  return Sk;
}

/// \returns false when a seek produced no assignment.
bool benchSeekLatency() {
  header("Cursor seek latency on a Table-1-sized space");
  AbstractSkeleton Sk = bigSkeleton();
  AssignmentCursor Cursor(Sk, SpeMode::Exact);
  std::printf("skeleton: %u holes, %u scopes, 3 types\n", Sk.numHoles(),
              Sk.numScopes());
  std::printf("class space: %s (~10^%.0f)\n", Cursor.size().toString().c_str(),
              Cursor.size().log10());

  RandomEngine Rng(0x5eedULL);
  const unsigned Seeks = 50;
  bool Ok = true;
  double Total = 0.0, Worst = 0.0;
  for (unsigned I = 0; I < Seeks; ++I) {
    // A pseudo-random rank: size * r / 2^32 for a 32-bit r.
    uint64_t R = static_cast<uint64_t>(
        Rng.uniformInt(0, static_cast<int64_t>(0x7fffffff)));
    BigInt Rank = (Cursor.size() * R).divideBySmall(uint64_t(1) << 31);
    auto Start = std::chrono::steady_clock::now();
    Cursor.seek(Rank);
    const Assignment *A = Cursor.next();
    double Sec = secondsSince(Start);
    if (!A) {
      std::printf("  !! seek(%s) produced nothing\n", Rank.toString().c_str());
      Ok = false;
    }
    Total += Sec;
    if (Sec > Worst)
      Worst = Sec;
  }
  std::printf("%u random seeks: avg %.3f ms, worst %.3f ms\n", Seeks,
              1e3 * Total / Seeks, 1e3 * Worst);
  return Ok;
}

void benchCursorStreaming() {
  header("Raw cursor streaming (no compilation)");
  AbstractSkeleton Sk = bigSkeleton();
  const uint64_t PerShard = 50'000;

  // Serial: one cursor walking the head of the space.
  {
    AssignmentCursor Cursor(Sk, SpeMode::Exact);
    Cursor.setEnd(BigInt(4 * PerShard));
    uint64_t N = 0;
    auto Start = std::chrono::steady_clock::now();
    while (Cursor.next())
      ++N;
    double Sec = secondsSince(Start);
    std::printf("serial   : %8llu variants in %.3f s (%.0f/sec)\n",
                static_cast<unsigned long long>(N), Sec, N / Sec);
  }

  // Sharded: four workers over the same range, own cursor each.
  {
    std::vector<std::thread> Workers;
    std::vector<uint64_t> Counts(4, 0);
    auto Start = std::chrono::steady_clock::now();
    for (unsigned W = 0; W < 4; ++W) {
      Workers.emplace_back([&, W] {
        AssignmentCursor Cursor(Sk, SpeMode::Exact);
        Cursor.setEnd(BigInt(4 * PerShard));
        Cursor.shard(W, 4);
        while (Cursor.next())
          ++Counts[W];
      });
    }
    for (std::thread &T : Workers)
      T.join();
    double Sec = secondsSince(Start);
    uint64_t N = Counts[0] + Counts[1] + Counts[2] + Counts[3];
    std::printf("4 shards : %8llu variants in %.3f s (%.0f/sec)\n",
                static_cast<unsigned long long>(N), Sec, N / Sec);
  }
}

} // namespace

int main() {
  // Both correctness checks run before the exit status is decided.
  bool Ok = benchCampaignScaling();
  if (!benchSeekLatency())
    Ok = false;
  benchCursorStreaming();
  return Ok ? 0 : 1;
}
