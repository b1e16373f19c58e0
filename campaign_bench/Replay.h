//===- campaign_bench/Replay.h - layer-by-layer traced replay -------------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run: re-drives a workload's campaigns through each module's
/// public functions, in the harness's own order (Threads = 1), and times
/// every call with the benchmark's spans. Per seed: Parser::parse,
/// Sema::run, SkeletonExtractor::extract, ProgramEnumerator::countSpe,
/// analyzeValidity; per variant: ProgramCursor::next, renderInto, the
/// oracle (OracleCache lookup/insert, parseAndAnalyze, interpret tagged by
/// verdict); per tested variant and config: parseAndAnalyze,
/// MiniCompiler::compile, executeModule, or beginBatch/finishBatch on the
/// external backend plus voteMatrixCell; per campaign: triageCampaign.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_CAMPAIGN_BENCH_REPLAY_H
#define SPE_CAMPAIGN_BENCH_REPLAY_H

#include "Spans.h"
#include "Workloads.h"

#include <cstdint>
#include <string>
#include <vector>

namespace spe {
namespace campaign_bench {

/// What one replayed campaign observed. The first block must equal the
/// untraced run's CampaignResult counters.
struct ReplayCounts {
  uint64_t Enumerated = 0;
  uint64_t Pruned = 0;
  uint64_t Tested = 0;
  uint64_t Excluded = 0;
  uint64_t OracleExecs = 0;
  uint64_t CacheHits = 0;
  uint64_t MatrixCells = 0;

  uint64_t CacheMisses = 0;
  uint64_t FrontendRejects = 0;
  /// UB verdicts that are uninitialized reads: what pruning missed.
  uint64_t UninitReads = 0;
  uint64_t Batches = 0;
  uint64_t TriageClusters = 0;
  uint64_t ReduceProbes = 0;
  uint64_t ReduceOracleRuns = 0;
};

/// Replays every campaign of \p I (wired with Wiring::Replay). \p Run holds
/// the untraced results of the same workload: triage is replayed on a copy
/// of each. \returns one entry per campaign; \p Why is set when a replayed
/// step disagrees with the run.
std::vector<ReplayCounts> replayWorkload(const WorkloadInstance &I,
                                         const std::vector<CampaignResult> &Run,
                                         SpanRecorder &Spans,
                                         std::string &Why);

/// Empty when \p C agrees with \p R on every counter both observe, else a
/// description of the first disagreement.
std::string compareCounts(const ReplayCounts &C, const CampaignResult &R);

} // namespace campaign_bench
} // namespace spe

#endif // SPE_CAMPAIGN_BENCH_REPLAY_H
