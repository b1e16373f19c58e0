//===- campaign_bench/Replay.cpp - layer-by-layer traced replay -----------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "Replay.h"

#include "compiler/Compiler.h"
#include "compiler/VM.h"
#include "lang/Parser.h"
#include "sema/Sema.h"
#include "skeleton/ProgramEnumerator.h"
#include "skeleton/ValidityAnalysis.h"
#include "skeleton/VariantRenderer.h"
#include "support/Diagnostics.h"
#include "triage/Deduper.h"
#include "triage/MatrixVote.h"

#include <memory>

using namespace spe;
using namespace spe::campaign_bench;

namespace {

bool verdictOk(const OracleCache::Entry &V) {
  return V.FrontendOk && V.Status == ExecStatus::Ok;
}

/// Replays one campaign: the seed front end, the cursor loop, the oracle
/// phase, and either the classic per-config in-process loop or the batched
/// N x M matrix pipeline, whichever the options select.
class CampaignReplay {
public:
  CampaignReplay(const HarnessOptions &Opts, SpanRecorder &S, ReplayCounts &C)
      : Opts(Opts), S(S), C(C), AllInputs(sweepUnion(Opts.Configs)) {
    Matrix = !Opts.ExtraBackends.empty() || AllInputs.size() > 1 ||
             !AllInputs.front().empty();
    if (Opts.Backend)
      Roster.push_back(Opts.Backend);
    for (const CompilerBackend *B : Opts.ExtraBackends)
      Roster.push_back(B);
  }

  /// \returns false with \p Why set for a campaign shape the replay does
  /// not mirror.
  bool supported(std::string &Why) const {
    bool Classic = !Matrix && !Opts.Backend && Opts.BatchSize <= 1;
    // Batched matrix: an external primary backend, in-process extras.
    bool BatchedMatrix = Matrix && Opts.Backend && Opts.BatchSize > 1 &&
                         dynamic_cast<const ExternalBackend *>(Opts.Backend);
    for (const CompilerBackend *B : Opts.ExtraBackends)
      BatchedMatrix =
          BatchedMatrix && dynamic_cast<const InProcessBackend *>(B);
    if (Classic || BatchedMatrix)
      return true;
    Why = "the replay mirrors classic in-process and batched external "
          "matrix campaigns only";
    return false;
  }

  void seed(const std::string &Source) {
    auto Ctx = std::make_unique<ASTContext>();
    DiagnosticEngine Diags;
    if (!S.time("lang.parse",
                [&] { return Parser::parse(Source, *Ctx, Diags); }))
      return;
    Sema Analysis(*Ctx, Diags);
    if (!S.time("sema.run", [&] { return Analysis.run(); }))
      return;
    SkeletonExtractor Extractor(*Ctx, Analysis, Opts.Extract);
    std::vector<SkeletonUnit> Units =
        S.time("skeleton.extract", [&] { return Extractor.extract(); });
    BigInt Count = S.time("core.count", [&] {
      return ProgramEnumerator(Units, Opts.Mode).countSpe();
    });
    if (Count > BigInt(Opts.VariantThreshold))
      return;
    BigInt Budget = Count;
    if (Opts.VariantBudget != 0 && BigInt(Opts.VariantBudget) < Budget)
      Budget = BigInt(Opts.VariantBudget);
    std::vector<ValidityConstraints> Validity;
    if (Opts.PruneInvalid)
      Validity = S.time("skeleton.validity", [&] {
        return analyzeValidity(*Ctx, Analysis, Units);
      });
    std::vector<const ValidityConstraints *> Ptrs = constraintPtrs(Validity);

    // Cursor construction and positioning: its own site, so core.cursor
    // stays one sample per next() call.
    auto T0 = Clock::now();
    ProgramCursor Cursor(Units, Opts.Mode);
    if (!Ptrs.empty())
      Cursor.setConstraints(Ptrs);
    Cursor.setEnd(Budget);
    Cursor.shard(0, 1);
    S.add("core.cursor_setup", secondsBetween(T0, Clock::now()));
    VariantRenderer Renderer(*Ctx, Units);
    std::string Buffer;
    while (const ProgramAssignment *PA =
               S.time("core.cursor", [&] { return Cursor.next(); })) {
      ++C.Enumerated;
      S.time("skeleton.render", [&] { Renderer.renderInto(*PA, Buffer); });
      variant(Buffer);
    }
    drain();
    const BigInt &Pruned = Cursor.pruned();
    C.Pruned += Pruned.fitsInUint64() ? Pruned.toUint64() : ~uint64_t(0);
  }

private:
  struct Item {
    std::string Source;
    OracleCache::Entry Verdict;
    std::vector<OracleCache::Entry> Sweep;
  };

  /// The oracle verdict of \p Source under \p Input: a cache replay, or
  /// parse + interpret (memoized when the campaign has a cache).
  OracleCache::Entry verdictFor(const std::string &Source,
                                const std::string &Input,
                                std::unique_ptr<ASTContext> &RefCtx,
                                bool &Parsed) {
    OracleCache::Entry V;
    std::string Key = oracleCacheKey(Source, Input);
    if (Opts.Cache) {
      if (S.time("cache.lookup", [&] { return Opts.Cache->lookup(Key, V); })) {
        ++C.CacheHits;
        return V;
      }
      ++C.CacheMisses;
    }
    if (!Parsed) {
      RefCtx = S.time("oracle.frontend",
                      [&] { return parseAndAnalyze(Source); });
      Parsed = true;
      if (!RefCtx)
        ++C.FrontendRejects;
    }
    V.FrontendOk = RefCtx != nullptr;
    if (RefCtx) {
      InterpOptions IO;
      IO.MaxSteps = Opts.OracleMaxSteps;
      IO.Input = Input;
      auto T0 = Clock::now();
      ExecResult Ref = interpret(*RefCtx, IO);
      double Dur = secondsBetween(T0, Clock::now());
      ++C.OracleExecs;
      switch (Ref.Status) {
      case ExecStatus::Ok:
        S.add("interp.ok", Dur);
        break;
      case ExecStatus::UndefinedBehavior:
        S.add("interp.ub", Dur);
        if (Ref.Message.rfind("read of uninitialized value", 0) == 0)
          ++C.UninitReads;
        break;
      case ExecStatus::Timeout:
        S.add("interp.timeout", Dur);
        break;
      case ExecStatus::Unsupported:
        S.add("interp.unsupported", Dur);
        break;
      }
      V.Status = Ref.Status;
      V.ExitCode = Ref.ExitCode;
      V.Output = std::move(Ref.Output);
    }
    if (Opts.Cache)
      S.time("cache.insert", [&] { Opts.Cache->insert(Key, V); });
    return V;
  }

  void variant(const std::string &Source) {
    std::unique_ptr<ASTContext> RefCtx;
    bool Parsed = false;
    Item It;
    It.Source = Source;
    It.Verdict = verdictFor(Source, AllInputs[0], RefCtx, Parsed);
    if (!It.Verdict.FrontendOk)
      return;
    if (It.Verdict.Status != ExecStatus::Ok) {
      ++C.Excluded;
      return;
    }
    ++C.Tested;
    if (AllInputs.size() > 1) {
      It.Sweep.push_back(It.Verdict);
      for (size_t I = 1; I < AllInputs.size(); ++I)
        It.Sweep.push_back(verdictFor(Source, AllInputs[I], RefCtx, Parsed));
    }
    if (!Matrix) {
      for (const CompilerConfig &Config : Opts.Configs)
        inProcessRow(Source, Config, {std::string()});
      return;
    }
    Cur.push_back(std::move(It));
    if (Cur.size() >= Opts.BatchSize)
      rotate();
  }

  /// InProcessBackend::runSweep, one layer per span: re-parse, compile,
  /// one VM execution per input.
  std::vector<BackendObservation>
  inProcessRow(const std::string &Source, const CompilerConfig &Config,
               const std::vector<std::string> &Inputs) {
    std::unique_ptr<ASTContext> Ctx =
        S.time("compiler.frontend", [&] { return parseAndAnalyze(Source); });
    BackendObservation Obs;
    if (!Ctx)
      return std::vector<BackendObservation>(Inputs.size(), Obs);
    MiniCompiler CC(Config, nullptr, Opts.InjectBugs);
    CompileResult R = S.time("compiler.compile", [&] { return CC.compile(*Ctx); });
    if (R.St == CompileResult::Status::Rejected)
      return std::vector<BackendObservation>(Inputs.size(), Obs);
    if (R.crashed()) {
      Obs.Compile = BackendObservation::CompileStatus::Crashed;
      return std::vector<BackendObservation>(Inputs.size(), Obs);
    }
    Obs.Compile = BackendObservation::CompileStatus::Ok;
    std::vector<BackendObservation> Row(Inputs.size(), Obs);
    for (size_t I = 0; I < Inputs.size(); ++I) {
      VMOptions VO;
      VO.Input = Inputs[I];
      auto T0 = Clock::now();
      VMResult V = executeModule(R.Module, VO);
      double Dur = secondsBetween(T0, Clock::now());
      switch (V.Status) {
      case VMStatus::Ok:
        S.add("compiler.exec_ok", Dur);
        Row[I].Exec = BackendObservation::ExecStatus::Ok;
        break;
      case VMStatus::Trap:
        S.add("compiler.exec_trap", Dur);
        Row[I].Exec = BackendObservation::ExecStatus::Trap;
        break;
      case VMStatus::Timeout:
        S.add("compiler.exec_timeout", Dur);
        Row[I].Exec = BackendObservation::ExecStatus::Timeout;
        break;
      }
      Row[I].ExitCode = V.ExitCode;
      Row[I].Output = std::move(V.Output);
    }
    return Row;
  }

  /// VariantPipeline::rotate: start the external backend's next batch
  /// before collecting the one in flight.
  void rotate() {
    std::vector<std::string> Sources;
    std::vector<BatchExpectation> Expected;
    for (const Item &It : Cur) {
      Sources.push_back(It.Source);
      BatchExpectation E;
      E.Valid = true;
      E.ExitCode = It.Verdict.ExitCode;
      E.Output = It.Verdict.Output;
      for (size_t U = 1; U < It.Sweep.size(); ++U)
        E.Extra.push_back({verdictOk(It.Sweep[U]), It.Sweep[U].ExitCode,
                           It.Sweep[U].Output});
      Expected.push_back(std::move(E));
    }
    std::unique_ptr<BatchTicket> Next = S.time("extcc.batch_submit", [&] {
      return Roster[0]->beginBatch(std::move(Sources), std::move(Expected),
                                   Opts.Configs, nullptr);
    });
    ++C.Batches;
    finishInFlight();
    Ticket = std::move(Next);
    InFlight = std::move(Cur);
    Cur.clear();
  }

  /// VariantPipeline::finishInFlight: collect the external batch, run the
  /// in-process roster slots' batch (the base finishBatch's runSweep loop),
  /// then vote every (config, input) cell.
  void finishInFlight() {
    if (!Ticket)
      return;
    // Obs[backend][variant][config][input].
    std::vector<std::vector<std::vector<std::vector<BackendObservation>>>>
        Obs;
    Obs.push_back(S.time("extcc.batch_wait", [&] {
      return Roster[0]->finishBatch(std::move(Ticket));
    }));
    Ticket.reset();
    for (size_t B = 1; B < Roster.size(); ++B) {
      Obs.emplace_back(InFlight.size());
      for (size_t I = 0; I < InFlight.size(); ++I)
        for (const CompilerConfig &Config : Opts.Configs)
          Obs[B][I].push_back(
              inProcessRow(InFlight[I].Source, Config, configInputs(Config)));
    }
    for (size_t I = 0; I < InFlight.size(); ++I)
      vote(InFlight[I], Obs, I);
    InFlight.clear();
  }

  /// The behavioral cells of recordMatrixVariant: one vote per (config,
  /// input) the oracle validated, across the roster.
  void vote(const Item &It,
            const std::vector<
                std::vector<std::vector<std::vector<BackendObservation>>>>
                &Obs,
            size_t Var) {
    for (size_t Cfg = 0; Cfg < Opts.Configs.size(); ++Cfg) {
      std::vector<std::string> Ins = configInputs(Opts.Configs[Cfg]);
      for (size_t I = 0; I < Ins.size(); ++I) {
        size_t U = 0;
        while (U < AllInputs.size() && AllInputs[U] != Ins[I])
          ++U;
        if (U >= AllInputs.size())
          continue;
        const OracleCache::Entry &V = It.Sweep.empty() ? It.Verdict : It.Sweep[U];
        if (!verdictOk(V))
          continue;
        std::vector<const BackendObservation *> Cells(Roster.size(), nullptr);
        for (size_t B = 0; B < Roster.size(); ++B) {
          if (Var >= Obs[B].size() || Cfg >= Obs[B][Var].size() ||
              I >= Obs[B][Var][Cfg].size())
            continue;
          const BackendObservation &Cell = Obs[B][Var][Cfg][I];
          Cells[B] = &Cell;
          if (Cell.Compile == BackendObservation::CompileStatus::Ok &&
              Cell.Exec != BackendObservation::ExecStatus::NotRun)
            ++C.MatrixCells;
        }
        S.time("triage.vote",
               [&] { return voteMatrixCell(V.ExitCode, V.Output, Cells); });
      }
    }
  }

  /// VariantPipeline::drain, run at every seed's end.
  void drain() {
    if (!Cur.empty())
      rotate();
    finishInFlight();
  }

  const HarnessOptions &Opts;
  SpanRecorder &S;
  ReplayCounts &C;
  std::vector<std::string> AllInputs;
  bool Matrix = false;
  std::vector<const CompilerBackend *> Roster;
  std::vector<Item> Cur;
  std::vector<Item> InFlight;
  std::unique_ptr<BatchTicket> Ticket;
};

} // namespace

std::vector<ReplayCounts>
campaign_bench::replayWorkload(const WorkloadInstance &I,
                               const std::vector<CampaignResult> &Run,
                               SpanRecorder &Spans, std::string &Why) {
  const std::vector<HarnessOptions> &Campaigns = I.campaigns();
  std::vector<ReplayCounts> Out(Campaigns.size());
  if (Run.size() != Campaigns.size()) {
    Why = "run and replay disagree on the number of campaigns";
    return Out;
  }
  for (size_t K = 0; K < Campaigns.size(); ++K) {
    const HarnessOptions &Opts = Campaigns[K];
    CampaignReplay Replay(Opts, Spans, Out[K]);
    if (!Replay.supported(Why))
      return Out;
    for (const std::string &Seed : I.seeds())
      Replay.seed(Seed);
    if (!Opts.Triage)
      continue;
    // triageCampaign on the run's findings, against the replay's cache --
    // which must now hold exactly what the run's cache held at this point.
    CampaignResult Copy = Run[K];
    Copy.Triaged.clear();
    Copy.Reduction = ReductionStats();
    TriageOptions T;
    T.Cache = Opts.Cache;
    T.InjectBugs = Opts.InjectBugs;
    T.Backend = Opts.Backend;
    T.ExtraBackends = Opts.ExtraBackends;
    Spans.time("triage", [&] { triageCampaign(Copy, T); });
    Out[K].TriageClusters = Copy.Triaged.size();
    Out[K].ReduceProbes = Copy.Reduction.ReductionProbes;
    Out[K].ReduceOracleRuns = Copy.Reduction.OracleRuns;
    if (!(Copy.Triaged == Run[K].Triaged) ||
        !(Copy.Reduction == Run[K].Reduction)) {
      Why = "replayed triage of campaign " + std::to_string(K) +
            " differs from the run's";
      return Out;
    }
  }
  return Out;
}

std::string campaign_bench::compareCounts(const ReplayCounts &C,
                                          const CampaignResult &R) {
  const std::pair<const char *, std::pair<uint64_t, uint64_t>> Pairs[] = {
      {"enumerated", {C.Enumerated, R.VariantsEnumerated}},
      {"pruned", {C.Pruned, R.VariantsPruned}},
      {"tested", {C.Tested, R.VariantsTested}},
      {"excluded", {C.Excluded, R.VariantsOracleExcluded}},
      {"oracle execs", {C.OracleExecs, R.OracleExecutions}},
      {"cache hits", {C.CacheHits, R.OracleCacheHits}},
      {"matrix cells", {C.MatrixCells, R.MatrixCellsCompared}},
  };
  for (const auto &[Name, V] : Pairs)
    if (V.first != V.second)
      return std::string(Name) + ": replay " + std::to_string(V.first) +
             " vs run " + std::to_string(V.second);
  return std::string();
}
