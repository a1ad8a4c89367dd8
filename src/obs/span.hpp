// ppf::obs — request spans for the serving layer.
//
// A span is one timed step of answering a `run` request: queue wait,
// memo lookup, cache probe, execution, the per-stage kernel shares, the
// response serialization, and the enclosing request itself. The serve
// layer emits a small tree of them per request (parent/child nesting is
// encoded by `depth` plus time containment) into a per-connection
// SpanBuffer, and the whole set exports as one Chrome/Perfetto timeline
// (obs::write_spans_chrome) so an entire soak run opens in one view.
//
// SpanBuffer is a bounded single-producer ring with the same
// drop-newest contract as TraceBuffer: the first `capacity` spans are
// kept verbatim, later ones only count, and
// attempted() == recorded() + dropped() reconciles exactly once the
// producer is quiescent. The producer is the connection thread that
// owns the buffer; readers (the `stats`/`metrics` verbs, the span_out
// exporter, tests) may snapshot concurrently and lock-free — the
// acquire/release pair on the published index is the only
// synchronization, so a reader sees a fully-written prefix, never a
// torn span.
//
// All timestamps are wall-clock microseconds relative to the owning
// Service's epoch (steady_clock at construction). Spans are telemetry
// only: they never enter config signatures, memo keys, warmup keys, or
// result bodies (tests/serve/telemetry_test.cpp pins byte-identity with
// telemetry at max verbosity).
//
// Span names are catalogued in span_name_docs(); ppf_analyze's
// span-name-docs rule requires every name to appear in
// docs/OBSERVABILITY.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace ppf::obs {

enum class SpanName : std::uint8_t {
  Request,      ///< whole run request, admission to serialized response
  QueueWait,    ///< admission-queue wait (enqueue to worker pickup)
  MemoLookup,   ///< result-memo probe
  CacheProbe,   ///< trace-arena + warmup-snapshot cache acquisition
  Execute,      ///< runlab execution (probe + simulation)
  StageFetch,   ///< fetch/dispatch stage-kernel share of the run
  StageProbe,   ///< L1D probe stage-kernel share
  StageRetire,  ///< retire stage-kernel share
  StageMemsys,  ///< memory-hierarchy stage-kernel share
  Serialize,    ///< response serialization
};

inline constexpr std::size_t kNumSpanNames = 10;

const char* to_string(SpanName n);

/// Span-name catalogue (the span analogue of serve::verb_docs()).
/// ppf_analyze's span-name-docs rule checks each name appears in
/// docs/OBSERVABILITY.md.
struct SpanNameDoc {
  std::string name;
  std::string help;
};
const std::vector<SpanNameDoc>& span_name_docs();

/// One timed step. 24-byte POD; timestamps are microseconds since the
/// owning service's epoch, `request` echoes the client request id.
struct Span {
  std::uint64_t request = 0;
  std::uint64_t start_us = 0;
  std::uint32_t dur_us = 0;
  SpanName name = SpanName::Request;
  std::uint8_t depth = 0;  ///< 0 = request root, children nest below
};

/// Bounded drop-newest span ring: one producer (the owning connection
/// thread), any number of concurrent lock-free readers.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity) : slots_(capacity) {}
  SpanBuffer(const SpanBuffer&) = delete;
  SpanBuffer& operator=(const SpanBuffer&) = delete;

  /// Producer only. Keeps the span while capacity lasts; afterwards the
  /// attempt still counts (so dropped() reconciles exactly).
  void record(const Span& s) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t n = published_.load(std::memory_order_relaxed);
    if (n >= slots_.size()) return;
    slots_[n] = s;
    published_.store(n + 1, std::memory_order_release);
  }

  [[nodiscard]] std::uint64_t attempted() const {
    return attempted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t recorded() const {
    return published_.load(std::memory_order_acquire);
  }
  /// attempted() - recorded(). Exact once the producer is quiescent;
  /// during concurrent recording a reader may observe a momentarily
  /// stale recorded() (never a torn one).
  [[nodiscard]] std::uint64_t dropped() const {
    const std::uint64_t a = attempted();
    const std::uint64_t r = recorded();
    return a > r ? a - r : 0;
  }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Copy out the published prefix. Safe from any thread while the
  /// producer keeps recording.
  [[nodiscard]] std::vector<Span> snapshot() const {
    const std::size_t n = published_.load(std::memory_order_acquire);
    return {slots_.begin(),
            slots_.begin() + static_cast<std::ptrdiff_t>(n)};
  }

 private:
  std::vector<Span> slots_;
  std::atomic<std::size_t> published_{0};
  std::atomic<std::uint64_t> attempted_{0};
};

}  // namespace ppf::obs
