//===- campaign_bench/Workloads.h - the benchmark's named workloads -------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three campaign workloads (persona-sweep, loop-call, external-matrix)
/// and one instance of each. Constructing a WorkloadInstance is the run's
/// set-up: it generates the corpus and builds the backends (the cc probe
/// and broker spawn), the oracle cache, sinks, feeds and harnesses.
/// Destroying it tears the broker pool down, so its CPU shows in
/// RUSAGE_CHILDREN.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_CAMPAIGN_BENCH_WORKLOADS_H
#define SPE_CAMPAIGN_BENCH_WORKLOADS_H

#include "compiler/ExternalBackend.h"
#include "testing/CampaignStatus.h"
#include "testing/Corpus.h"
#include "testing/Harness.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace spe {
namespace campaign_bench {

enum class WorkloadKind { PersonaSweep, LoopCall, ExternalMatrix };

/// What a workload is, given its name and workload seed. Seed 0 is the
/// default: the corpus in its generated order and sweep inputs {1, 7},
/// whose outcome is pinned under campaign_bench/expected/. Any other seed
/// enumerates the same programs in a seed-shuffled order, and draws the
/// external-matrix sweep inputs from the seed. The corpus itself stays
/// fixed: single divergent programs dominate campaign cost (one of the
/// default persona programs takes 3.3 s of 4.1 s), so a seed-chosen corpus
/// would move tested_per_s several-fold between seeds.
struct WorkloadSpec {
  WorkloadKind Kind = WorkloadKind::PersonaSweep;
  std::string Name;
  uint64_t Seed = 0;
  uint64_t CorpusBase = 0;
  unsigned CorpusCount = 0;
  CorpusOptions Corpus;
  /// Sweep inputs of the external-matrix configs.
  std::vector<std::string> SweepInputs;

  bool defaultSeed() const { return Seed == 0; }
};

/// \returns false when \p Name names no workload.
bool makeSpec(const std::string &Name, uint64_t Seed, WorkloadSpec &Out);

/// Deletes everything an earlier instance left in \p Dir (checkpoint,
/// store, event log, status, compiler scratch), so the next one starts
/// cold. Not part of set-up: it removes the benchmark's own leftovers.
void resetWorkDir(const std::string &Dir);

/// How an instance is wired.
enum class Wiring {
  /// The workload as defined (persona-sweep: checkpoint, store, event log,
  /// status feed).
  Production,
  /// persona-sweep with the telemetry sink and status feed detached: the
  /// other half of a telemetry-overhead pair.
  Detached,
  /// Input to the traced replay: no checkpoint, store, sink or feed; the
  /// external backend reports its compile/exec phases to a sink.
  Replay,
};

class WorkloadInstance {
public:
  WorkloadInstance(const WorkloadSpec &Spec, const std::string &Dir, Wiring W);
  ~WorkloadInstance();
  WorkloadInstance(const WorkloadInstance &) = delete;
  WorkloadInstance &operator=(const WorkloadInstance &) = delete;

  /// False (with the reason) when the workload cannot run as defined, e.g.
  /// the host cc is missing. The run then counts as failed; it never
  /// silently skips.
  bool ready(std::string &Why) const;

  /// Runs every campaign of the workload in order through the harness.
  std::vector<CampaignResult> run() const;

  const std::vector<std::string> &seeds() const { return Seeds; }
  /// One options struct per campaign, fully wired.
  const std::vector<HarnessOptions> &campaigns() const { return Options; }
  /// The sink the external backend reports compile/exec phases to (Replay
  /// wiring of external-matrix only), else null.
  const TelemetrySink *backendSink() const { return BackendSink.get(); }
  /// Bytes of every campaign's event log on disk.
  uint64_t eventLogBytes() const;

private:
  std::vector<std::string> Seeds;
  std::vector<HarnessOptions> Options;
  std::vector<std::string> EventLogs;
  std::unique_ptr<OracleCache> Cache;
  std::vector<std::unique_ptr<TelemetrySink>> Sinks;
  std::vector<std::unique_ptr<CampaignStatusFeed>> Feeds;
  std::unique_ptr<TelemetrySink> BackendSink;
  std::unique_ptr<ExternalBackend> External;
  std::unique_ptr<InProcessBackend> InProcess;
  /// Declared last: they copy Options, which must be complete first.
  std::vector<std::unique_ptr<DifferentialHarness>> Harnesses;
};

/// The outcome a correct optimisation must not change, as text: per
/// campaign VariantsTested, enumerated + pruned ranks, ExecutionTimeouts,
/// MatrixCellsCompared, the UniqueBugs ids, the RawFindings keys and the
/// triaged cluster signatures.
std::string outcomeText(const std::vector<CampaignResult> &Results);

} // namespace campaign_bench
} // namespace spe

#endif // SPE_CAMPAIGN_BENCH_WORKLOADS_H
