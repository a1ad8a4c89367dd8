// ppf::obs — lightweight wall-clock profiler for the serving hot paths.
//
// PPF_PROF_SCOPE(prof, id) drops an RAII steady_clock probe on a scope;
// when `prof` is null (the default — the daemon's prof= knob is off)
// the probe costs one pointer test, and compiling with
// -DPPF_PROF_DISABLED removes even that. Durations aggregate into
// per-scope Histograms surfaced through the obs MetricRegistry snapshot
// path (p50/p95/p99/p99.9 in the stats verb and the Prometheus
// exposition).
//
// Wall-clock only, telemetry only: profiler state never touches config
// signatures, memo keys, warmup keys, or result bodies. steady_clock is
// the sanctioned clock (see ppf_analyze's no-wallclock-rand rule).
//
// Thread safety: record() takes the profiler's own mutex (scopes fire
// on worker and connection threads concurrently); the histograms are
// bucketed at 10 us over a 20 ms range, so sub-ms serving scopes
// resolve well and multi-second simulate scopes land in the overflow
// bucket with an exact max and interpolated tail percentiles.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/stats.hpp"
#include "obs/metrics.hpp"

namespace ppf::obs {

enum class ProfScopeId : std::uint8_t {
  ServeParse,      ///< request-line parse on the connection thread
  ServeHandle,     ///< whole Service::handle dispatch
  ServeMemoLookup, ///< result-memo probe
  ServeSerialize,  ///< response serialization
  RunlabProbe,     ///< ExecCache arena + snapshot acquisition
  RunlabSimulate,  ///< ExecCache simulation (cold or snapshot resume)
};

inline constexpr std::size_t kNumProfScopes = 6;

/// Metric name for a scope ("prof.serve.parse_us", ...). Catalogued in
/// docs/OBSERVABILITY.md.
const char* to_string(ProfScopeId id);

class Profiler {
 public:
  Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  void record(ProfScopeId id, std::uint64_t us);

  /// Append one HistogramSnapshot per scope to `out.histograms`, in
  /// scope-id order (deterministic exposition ordering). Takes the
  /// profiler lock, so it is safe while scopes keep firing.
  void append_snapshot(MetricsSnapshot& out) const;

 private:
  mutable std::mutex mu_;
  std::vector<Histogram> hists_;  // PPF_GUARDED_BY(mu_)
};

/// RAII probe: measures construction-to-destruction and records it on
/// the (possibly null) profiler.
class ProfScope {
 public:
  ProfScope(Profiler* prof, ProfScopeId id) : prof_(prof), id_(id) {
    if (prof_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ProfScope() {
    if (prof_ == nullptr) return;
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    prof_->record(id_, us < 0 ? 0 : static_cast<std::uint64_t>(us));
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  Profiler* prof_;
  ProfScopeId id_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace ppf::obs

#if defined(PPF_PROF_DISABLED)
// Compiled out: no clock reads, no pointer test, argument side effects
// preserved nowhere (the arguments must be effect-free names).
#define PPF_PROF_SCOPE(prof, id) \
  do {                           \
  } while (false)
#else
#define PPF_PROF_CAT2(a, b) a##b
#define PPF_PROF_CAT(a, b) PPF_PROF_CAT2(a, b)
#define PPF_PROF_SCOPE(prof, id)                            \
  ::ppf::obs::ProfScope PPF_PROF_CAT(ppf_prof_scope_,       \
                                     __LINE__) {            \
    (prof), (id)                                            \
  }
#endif
