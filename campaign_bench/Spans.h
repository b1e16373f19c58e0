//===- campaign_bench/Spans.h - the benchmark's own call-site spans -------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans the traced replay records around each call it makes into a
/// library layer. Spans stay in memory and are folded into per-site
/// aggregates (busy seconds, call count, every sample for percentiles);
/// nothing is recorded inside the library itself. Replay spans never nest,
/// so a site's busy time is also its self time.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_CAMPAIGN_BENCH_SPANS_H
#define SPE_CAMPAIGN_BENCH_SPANS_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace spe {
namespace campaign_bench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// Aggregate of one call site across every replay of a run.
struct SiteStats {
  double BusyS = 0.0;
  uint64_t Count = 0;
  std::vector<double> SamplesUs;

  /// The \p Q quantile in microseconds, or 0 when fewer than ten samples
  /// lie beyond it (too few to locate that tail).
  double quantileUs(double Q) const {
    size_t N = SamplesUs.size();
    if (N == 0 || static_cast<double>(N) * (1.0 - Q) < 10.0)
      return 0.0;
    std::vector<double> Sorted = SamplesUs;
    size_t K = std::min(N - 1, static_cast<size_t>(Q * static_cast<double>(N)));
    std::nth_element(Sorted.begin(), Sorted.begin() + K, Sorted.end());
    return Sorted[K];
  }
};

class SpanRecorder {
public:
  void add(const std::string &Site, double Seconds) {
    SiteStats &S = Sites[Site];
    S.BusyS += Seconds;
    ++S.Count;
    S.SamplesUs.push_back(Seconds * 1e6);
  }

  /// Runs \p Fn, records its duration under \p Site, returns its result.
  template <typename Fn> auto time(const char *Site, Fn &&Body) {
    auto T0 = Clock::now();
    if constexpr (std::is_void_v<decltype(Body())>) {
      Body();
      add(Site, secondsBetween(T0, Clock::now()));
    } else {
      auto R = Body();
      add(Site, secondsBetween(T0, Clock::now()));
      return R;
    }
  }

  const SiteStats &site(const std::string &Name) const {
    static const SiteStats Empty;
    auto It = Sites.find(Name);
    return It == Sites.end() ? Empty : It->second;
  }

  /// Sum of every site's busy time: what the spans attribute.
  double attributedS() const {
    double S = 0.0;
    for (const auto &[Name, Stats] : Sites)
      S += Stats.BusyS;
    return S;
  }

private:
  std::map<std::string, SiteStats> Sites;
};

} // namespace campaign_bench
} // namespace spe

#endif // SPE_CAMPAIGN_BENCH_SPANS_H
