//===- campaign_bench/main.cpp - the repository's campaign benchmark ------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One workload per process:
///
///   campaign_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///
/// With --trace 0 the process first sets the workload up many times
/// without running it (setup_s). The first iteration is the warm-up: its
/// set-up time counts toward setup_s, its result becomes the run's
/// reference (and, on the default seed, is checked against the pinned
/// outcome), and nothing else of it is timed. Then, until --seconds have
/// passed, each iteration sets the workload up cold and runs it through
/// DifferentialHarness.
///
/// --trace 0 reports the end-to-end metrics (medians over the timed
/// iterations). --trace 1 pairs every untraced iteration with a traced
/// replay (Replay.h) and reports the per-layer metrics; on persona-sweep
/// it also interleaves runs with the telemetry sink and status feed
/// detached. Every iteration has a deadline; an iteration that misses it,
/// cannot run, or whose result or replay disagrees counts as failed, and
/// any failure makes the command exit non-zero. The last line of stdout is
/// the JSON result.
///
//===----------------------------------------------------------------------===//

#include "Replay.h"
#include "Spans.h"
#include "Workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <thread>

using namespace spe;
using namespace spe::campaign_bench;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 20.0;
  bool Trace = false;
  std::string WorkDir = ".bench_build/campaign_bench_work";
  std::string ExpectedDir = "campaign_bench/expected";
  /// Rewrite the pinned outcome of the default seed instead of checking it.
  bool WriteExpected = false;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--write-expected") {
      A.WriteExpected = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    std::string Value = Argv[++I];
    try {
      if (Flag == "--workload")
        A.Workload = Value;
      else if (Flag == "--seed")
        A.Seed = std::stoull(Value);
      else if (Flag == "--seconds")
        A.Seconds = std::stod(Value);
      else if (Flag == "--trace")
        A.Trace = std::stoi(Value) != 0;
      else if (Flag == "--workdir")
        A.WorkDir = Value;
      else if (Flag == "--expected-dir")
        A.ExpectedDir = Value;
      else
        return false;
    } catch (const std::exception &) {
      return false;
    }
  }
  return !A.Workload.empty();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// CPU seconds of this process plus every child it has reaped.
double cpuSeconds() {
  auto Sum = [](int Who) {
    rusage U{};
    getrusage(Who, &U);
    return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec);
  };
  return Sum(RUSAGE_SELF) + Sum(RUSAGE_CHILDREN);
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// The result line: the last line of stdout.
void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  for (size_t I = 0; I < Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                Metrics[I].Unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Puts every iteration on a deadline. A campaign cannot be interrupted
/// from outside, so a missed deadline ends the process: the expiry handler
/// prints the failed result and the process exits non-zero (the wrapper
/// then kills whatever the wedged iteration left running).
class Watchdog {
public:
  explicit Watchdog(std::function<void(const std::string &)> OnExpire)
      : OnExpire(std::move(OnExpire)), Thread([this] { loop(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Stop = true;
    }
    Cv.notify_all();
    Thread.join();
  }
  Watchdog(const Watchdog &) = delete;
  Watchdog &operator=(const Watchdog &) = delete;

  void arm(double Seconds, const std::string &What) {
    std::lock_guard<std::mutex> Lock(M);
    Deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(Seconds));
    Label = What + " (deadline " + std::to_string(Seconds) + " s)";
    Armed = true;
    Cv.notify_all();
  }
  void disarm() {
    std::lock_guard<std::mutex> Lock(M);
    Armed = false;
  }

private:
  void loop() {
    std::unique_lock<std::mutex> Lock(M);
    while (!Stop) {
      if (!Armed) {
        Cv.wait(Lock);
        continue;
      }
      if (Cv.wait_until(Lock, Deadline) == std::cv_status::timeout && Armed &&
          Clock::now() >= Deadline) {
        OnExpire(Label);
        std::_Exit(3);
      }
    }
  }

  std::function<void(const std::string &)> OnExpire;
  std::mutex M;
  std::condition_variable Cv;
  bool Stop = false;
  bool Armed = false;
  Clock::time_point Deadline;
  std::string Label;
  std::thread Thread; ///< Last: starts after the state it reads exists.
};

/// One cold iteration of the workload.
struct Iteration {
  bool Ok = false;
  std::string Why;
  double SetupS = 0.0;
  double WallS = 0.0;  ///< Campaigns (and their triage), set-up excluded.
  double TotalS = 0.0; ///< Set-up, campaigns and teardown.
  double CpuS = 0.0;
  uint64_t Tested = 0;
  uint64_t EventLogBytes = 0;
  std::vector<CampaignResult> Results;
};

std::string readFile(const std::string &Path, bool &Found) {
  std::ifstream In(Path);
  Found = static_cast<bool>(In);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// The first line where \p A and \p B differ, for the failure message.
std::string firstDifference(const std::string &A, const std::string &B) {
  std::istringstream SA(A), SB(B);
  std::string LA, LB;
  for (unsigned Line = 1;; ++Line) {
    bool HA = static_cast<bool>(std::getline(SA, LA));
    bool HB = static_cast<bool>(std::getline(SB, LB));
    if (!HA && !HB)
      return "identical";
    if (!HA || !HB || LA != LB)
      return "line " + std::to_string(Line) + ": got '" + (HA ? LA : "<eof>") +
             "', pinned '" + (HB ? LB : "<eof>") + "'";
  }
}

class Bench {
public:
  Bench(Args A, WorkloadSpec Spec)
      : A(std::move(A)), Spec(std::move(Spec)),
        Dir(this->A.WorkDir + "/" + this->Spec.Name),
        WD([this](const std::string &What) {
          std::fprintf(stderr, "campaign_bench: FAILED: %s missed its "
                               "deadline\n",
                       What.c_str());
          printResult(false, Attempted.load() + 1, Failed.load() + 1, {});
        }) {}

  int run() {
    if (!A.Trace)
      repeatSetup();
    if (!warmUp())
      return finish();
    auto MeasureStart = Clock::now();
    double EstS = Warm.TotalS;
    const size_t MinIters = A.Trace ? 1 : 2;
    for (size_t Done = 0;; ++Done) {
      double Elapsed = secondsBetween(MeasureStart, Clock::now());
      if (Done >= MinIters && Elapsed + EstS > A.Seconds)
        break;
      auto T0 = Clock::now();
      if (!(A.Trace ? tracedIteration(Done) : timedIteration()))
        break;
      EstS = secondsBetween(T0, Clock::now());
    }
    return finish();
  }

private:
  double deadlineS() const {
    return Warm.Ok ? std::max(30.0, 4.0 * Warm.TotalS) : 150.0;
  }

  void fail(const std::string &Why) {
    ++Failed;
    std::fprintf(stderr, "campaign_bench: FAILED: %s\n", Why.c_str());
  }

  /// Sets up, runs and tears down one cold instance wired as \p W.
  Iteration iterate(Wiring W, const char *What) {
    Iteration It;
    ++Attempted;
    WD.arm(deadlineS(), std::string(What) + " iteration of " + Spec.Name);
    resetWorkDir(Dir);
    double Cpu0 = cpuSeconds();
    auto T0 = Clock::now();
    {
      WorkloadInstance Inst(Spec, Dir, W);
      auto T1 = Clock::now();
      It.SetupS = secondsBetween(T0, T1);
      if (Inst.ready(It.Why)) {
        It.Results = Inst.run();
        It.WallS = secondsBetween(T1, Clock::now());
        It.EventLogBytes = Inst.eventLogBytes();
        It.Ok = true;
      }
    }
    It.TotalS = secondsBetween(T0, Clock::now());
    It.CpuS = cpuSeconds() - Cpu0;
    WD.disarm();
    for (const CampaignResult &R : It.Results)
      It.Tested += R.VariantsTested;
    Setups.push_back(It.SetupS);
    if (!It.Ok)
      fail(Spec.Name + ": " + It.Why);
    else if (Warm.Ok && !(It.Results == Warm.Results)) {
      It.Ok = false;
      fail(Spec.Name + ": campaign result differs from the warm-up "
                       "iteration's");
    }
    return It;
  }

  bool warmUp() {
    Warm = iterate(Wiring::Production, "warm-up");
    if (!Warm.Ok)
      return false;
    if (!Spec.defaultSeed())
      return true;
    // The default seed's outcome is pinned: a correct optimisation leaves
    // it unchanged.
    std::string Got = outcomeText(Warm.Results);
    std::string Path = A.ExpectedDir + "/" + Spec.Name + ".txt";
    if (A.WriteExpected) {
      std::ofstream(Path) << Got;
      std::printf("wrote %s\n", Path.c_str());
      return true;
    }
    bool Found = false;
    std::string Pinned = readFile(Path, Found);
    if (!Found) {
      fail("pinned outcome " + Path + " is missing");
      return false;
    }
    if (Got != Pinned) {
      fail(Spec.Name + ": outcome differs from " + Path + " at " +
           firstDifference(Got, Pinned));
      return false;
    }
    return true;
  }

  /// setup_s is milliseconds against seconds of campaign: many set-ups,
  /// made in the fresh process before any campaign has run, keep its
  /// median steady.
  void repeatSetup() {
    WD.arm(150.0, "set-up repetitions of " + Spec.Name);
    for (unsigned I = 0; I < SetupRepeats; ++I) {
      resetWorkDir(Dir);
      auto T0 = Clock::now();
      WorkloadInstance Inst(Spec, Dir, Wiring::Production);
      Setups.push_back(secondsBetween(T0, Clock::now()));
    }
    WD.disarm();
  }

  bool timedIteration() {
    Iteration It = iterate(Wiring::Production, "timed");
    if (!It.Ok)
      return false;
    TestedPerS.push_back(static_cast<double>(It.Tested) / It.WallS);
    CpuS.push_back(It.CpuS);
    std::printf("iteration: %llu tested in %.3f s (set-up %.4f s, cpu %.3f "
                "s)\n",
                static_cast<unsigned long long>(It.Tested), It.WallS,
                It.SetupS, It.CpuS);
    return true;
  }

  bool tracedIteration(size_t Index) {
    Iteration Run;
    double UntracedWallS = 0.0;
    if (Spec.Kind == WorkloadKind::PersonaSweep) {
      // Interleaved pairs, alternating which side goes first.
      Iteration Detached;
      if (Index % 2 == 0) {
        Run = iterate(Wiring::Production, "attached");
        Detached = iterate(Wiring::Detached, "detached");
      } else {
        Detached = iterate(Wiring::Detached, "detached");
        Run = iterate(Wiring::Production, "attached");
      }
      if (!Run.Ok || !Detached.Ok)
        return false;
      TelemetryRatios.push_back(Run.WallS / Detached.WallS);
      // The replay carries no telemetry either; compare like with like.
      UntracedWallS = Detached.WallS;
    } else {
      Run = iterate(Wiring::Production, "untraced");
      if (!Run.Ok)
        return false;
      UntracedWallS = Run.WallS;
    }
    for (const CampaignResult &R : Run.Results) {
      CheckpointWriteS += 1e-6 * static_cast<double>(
                                     R.Telemetry.totalUsFor("checkpoint_write"));
      CheckpointWrites += R.Telemetry.countFor("checkpoint_write");
      StoreBytes = std::max(StoreBytes, R.OracleStoreBytes);
    }
    EventLogBytes = Run.EventLogBytes;
    ++Runs;

    ++Attempted;
    WD.arm(deadlineS(), "traced replay of " + Spec.Name);
    resetWorkDir(Dir);
    double Wall = 0.0;
    double Attributed0 = Spans.attributedS();
    std::string Why;
    {
      WorkloadInstance Inst(Spec, Dir, Wiring::Replay);
      if (Inst.ready(Why)) {
        auto T0 = Clock::now();
        Counts = replayWorkload(Inst, Run.Results, Spans, Why);
        Wall = secondsBetween(T0, Clock::now());
      }
      if (const TelemetrySink *Sink = Inst.backendSink()) {
        TelemetrySummary Sum = Sink->summary();
        ExtCompileS += 1e-6 * static_cast<double>(Sum.totalUsFor("compile"));
        ExtCompiles += Sum.countFor("compile");
        ExtExecS += 1e-6 * static_cast<double>(Sum.totalUsFor("exec"));
        ExtExecs += Sum.countFor("exec");
      }
    }
    WD.disarm();
    for (size_t K = 0; Why.empty() && K < Counts.size(); ++K) {
      std::string D = compareCounts(Counts[K], Run.Results[K]);
      if (!D.empty())
        Why = "replayed campaign " + std::to_string(K) + " " + D;
    }
    if (!Why.empty()) {
      fail(Spec.Name + ": " + Why);
      return false;
    }
    ReplayWallS += Wall;
    TraceRatios.push_back(Wall / UntracedWallS);
    AttributedShares.push_back((Spans.attributedS() - Attributed0) / Wall);
    ++Replays;
    std::printf("replay: %.3f s traced vs %.3f s untraced, %.1f%% "
                "attributed\n",
                Wall, UntracedWallS, 100.0 * AttributedShares.back());
    return true;
  }

  std::vector<Metric> endToEndMetrics() const {
    rusage U{};
    getrusage(RUSAGE_SELF, &U);
    return {{"tested_per_s", median(TestedPerS), "1/s"},
            {"cpu_s", median(CpuS), "s"},
            {"peak_rss_mb", static_cast<double>(U.ru_maxrss) / 1024.0, "MB"},
            {"setup_s", median(Setups), "s"}};
  }

  std::vector<Metric> perLayerMetrics() const {
    std::vector<Metric> M;
    const double NR = Replays ? static_cast<double>(Replays) : 1.0;
    const double NU = Runs ? static_cast<double>(Runs) : 1.0;
    auto Busy = [&](const char *Site, const std::string &Name) {
      M.push_back({Name, Spans.site(Site).BusyS / NR, "s"});
    };
    auto Calls = [&](const char *Site, const std::string &Name) {
      M.push_back(
          {Name, static_cast<double>(Spans.site(Site).Count) / NR, "count"});
    };
    auto Site = [&](const char *Name) {
      Busy(Name, std::string(Name) + "_s");
      Calls(Name, std::string(Name) + "_count");
    };
    auto Quantiles = [&](const char *Name, bool P99) {
      M.push_back({std::string(Name) + "_p50_us",
                   Spans.site(Name).quantileUs(0.50), "us"});
      if (P99)
        M.push_back({std::string(Name) + "_p99_us",
                     Spans.site(Name).quantileUs(0.99), "us"});
    };
    auto Put = [&](const std::string &Name, double V, const char *Unit) {
      M.push_back({Name, V, Unit});
    };
    ReplayCounts C;
    for (const ReplayCounts &K : Counts) {
      C.Enumerated += K.Enumerated;
      C.Pruned += K.Pruned;
      C.OracleExecs += K.OracleExecs;
      C.CacheHits += K.CacheHits;
      C.CacheMisses += K.CacheMisses;
      C.FrontendRejects += K.FrontendRejects;
      C.UninitReads += K.UninitReads;
      C.MatrixCells += K.MatrixCells;
      C.Batches += K.Batches;
      C.TriageClusters += K.TriageClusters;
      C.ReduceProbes += K.ReduceProbes;
      C.ReduceOracleRuns += K.ReduceOracleRuns;
    }
    auto Ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0.0; };
    auto D = [](uint64_t V) { return static_cast<double>(V); };

    // Seed front end.
    for (const char *S : {"lang.parse", "sema.run", "skeleton.extract",
                          "core.count", "skeleton.validity"})
      Site(S);
    // Cursor and render.
    Site("core.cursor");
    Quantiles("core.cursor", false);
    Put("core.ranks_pruned", D(C.Pruned), "count");
    Put("core.prune_ratio", Ratio(D(C.Pruned), D(C.Pruned + C.Enumerated)),
          "ratio");
    Site("skeleton.render");
    // Reference oracle.
    Site("oracle.frontend");
    Quantiles("oracle.frontend", true);
    Put("oracle.frontend_rejects", D(C.FrontendRejects), "count");
    Site("interp.ok");
    Quantiles("interp.ok", true);
    Site("interp.ub");
    Put("interp.uninit_read_count", D(C.UninitReads), "count");
    Site("interp.timeout");
    Quantiles("interp.timeout", false);
    Put("interp.useful_ratio",
          Ratio(D(Spans.site("interp.ok").Count), D(C.OracleExecs) * NR),
          "ratio");
    // Oracle cache.
    Site("cache.lookup");
    Busy("cache.insert", "cache.insert_s");
    Put("cache.hit_ratio",
          Ratio(D(C.CacheHits), D(C.CacheHits + C.CacheMisses)), "ratio");
    // In-process compiler.
    Site("compiler.frontend");
    Site("compiler.compile");
    Quantiles("compiler.compile", true);
    Site("compiler.exec_ok");
    Site("compiler.exec_trap");
    Site("compiler.exec_timeout");
    // External compiler: spans around beginBatch/finishBatch, plus the
    // compile/exec phases the backend itself records.
    Busy("extcc.batch_submit", "extcc.batch_submit_s");
    Busy("extcc.batch_wait", "extcc.batch_wait_s");
    Put("extcc.batches", D(C.Batches), "count");
    Put("extcc.compile_s", ExtCompileS / NR, "s");
    Put("extcc.compile_count", D(ExtCompiles) / NR, "count");
    Put("extcc.exec_s", ExtExecS / NR, "s");
    Put("extcc.exec_count", D(ExtExecs) / NR, "count");
    // Matrix vote and triage/reduce.
    Busy("triage.vote", "triage.vote_s");
    Put("triage.cells_compared", D(C.MatrixCells), "count");
    Busy("triage", "triage.s");
    Put("triage.clusters", D(C.TriageClusters), "count");
    Put("reduce.probes", D(C.ReduceProbes), "count");
    Put("reduce.oracle_runs", D(C.ReduceOracleRuns), "count");
    // Persistence and telemetry, as the program records them.
    Put("persist.checkpoint_write_s", CheckpointWriteS / NU, "s");
    Put("persist.checkpoint_writes", D(CheckpointWrites) / NU, "count");
    Put("persist.store_bytes", D(StoreBytes), "bytes");
    Put("telemetry.overhead_ratio", median(TelemetryRatios), "ratio");
    Put("telemetry.event_log_bytes", D(EventLogBytes), "bytes");
    // The trace itself.
    Put("trace.wall_s", ReplayWallS / NR, "s");
    Put("trace.overhead_ratio", median(TraceRatios), "ratio");
    Put("trace.attributed_share", median(AttributedShares), "ratio");
    return M;
  }

  int finish() {
    bool Correct = Failed.load() == 0;
    printResult(Correct, Attempted.load(), Failed.load(),
                A.Trace ? perLayerMetrics() : endToEndMetrics());
    return Correct ? 0 : 1;
  }

  Args A;
  WorkloadSpec Spec;
  std::string Dir;
  std::atomic<uint64_t> Attempted{0};
  std::atomic<uint64_t> Failed{0};
  Iteration Warm;

  // End-to-end samples, one per timed iteration (set-up: every iteration
  // plus SetupRepeats set-ups that run nothing).
  static constexpr unsigned SetupRepeats = 100;
  std::vector<double> TestedPerS, CpuS, Setups;

  // Traced runs.
  SpanRecorder Spans;
  std::vector<ReplayCounts> Counts;
  size_t Replays = 0, Runs = 0;
  double ReplayWallS = 0.0;
  std::vector<double> TraceRatios, AttributedShares, TelemetryRatios;
  double CheckpointWriteS = 0.0;
  uint64_t CheckpointWrites = 0;
  uint64_t StoreBytes = 0;
  uint64_t EventLogBytes = 0;
  double ExtCompileS = 0.0, ExtExecS = 0.0;
  uint64_t ExtCompiles = 0, ExtExecs = 0;

  Watchdog WD; ///< Last: its thread may read the counters above.
};

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  WorkloadSpec Spec;
  if (!parseArgs(Argc, Argv, A) || !makeSpec(A.Workload, A.Seed, Spec)) {
    std::fprintf(stderr,
                 "usage: campaign_bench --workload "
                 "{persona-sweep|loop-call|external-matrix} --seed N "
                 "--seconds S --trace {0|1} [--workdir DIR] "
                 "[--expected-dir DIR] [--write-expected]\n");
    return 2;
  }
  Bench B(std::move(A), std::move(Spec));
  return B.run();
}
