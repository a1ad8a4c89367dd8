// The history table at the heart of the pollution filter: a direct-indexed
// array of 2-bit saturating counters, looked up and updated exactly like a
// bimodal branch predictor (Section 4 of the paper).
#pragma once

#include <cstdint>
#include <vector>

#include "common/hash.hpp"
#include "common/sat_counter.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace ppf::check {
class CheckRegistry;
}

namespace ppf::filter {

struct HistoryTableConfig {
  /// Number of counters; power of two. Paper default: 4096 (1KB of 2-bit
  /// counters).
  std::size_t entries = 4096;
  /// Counter width in bits. Paper: 2. 1- and 3-bit variants are studied
  /// in `bench_paper fig=ablation`.
  unsigned counter_bits = 2;
  /// Initial counter value, clamped to the counter range. The paper
  /// assumes a prefetch that first maps to an entry is good, so the
  /// default is the weakly-good state *of the default 2-bit width*.
  /// This is an explicit config knob (fig=ablation sweeps it), so it
  /// stays a raw value: when overriding counter_bits, pick init_value
  /// with SaturatingCounter::weakly_positive/_negative semantics in
  /// mind — for 1-bit counters an inherited 2 clamps to saturated-good.
  std::uint8_t init_value = 2;
  /// Index hash. Modulo (low bits, the paper's "direct indexing") is the
  /// default: consecutive lines map to consecutive entries, so a small
  /// polluting region poisons only its own slice of the table instead of
  /// scattering bad feedback over every entry. The stronger mixers are
  /// studied in `bench_paper fig=ablation`.
  HashKind hash = HashKind::Modulo;
  /// Interleave the prefetch source into the index (key*4 | source). The
  /// prefetch generator knows which engine produced each request (Figure
  /// 3 routes them separately), and NSP/SDP/software prefetches of the
  /// *same* line routinely have opposite outcomes — without separation
  /// their feedback cancels in one counter. fig=ablation quantifies it.
  bool source_separated = true;
};

class HistoryTable {
 public:
  explicit HistoryTable(HistoryTableConfig cfg);

  /// True when the counter for `key` predicts the prefetch is good.
  /// `source` participates in indexing when source_separated is set: the
  /// table is rotated by a per-source offset, so different engines'
  /// outcomes for one key train different counters without sacrificing
  /// capacity or the spatial-locality property of direct indexing.
  [[nodiscard]] bool predict_good(
      std::uint64_t key, PrefetchSource source = PrefetchSource::Software)
      const;

  /// Feedback: the prefetch keyed by `key` turned out good (referenced
  /// before eviction) or bad.
  void update(std::uint64_t key, bool good,
              PrefetchSource source = PrefetchSource::Software);

  /// Decisive feedback: saturate the counter (to max when good, else 0).
  /// Used for recovery — a demand miss to a just-rejected line proves the
  /// rejection wrong outright, not merely by one counter step.
  void update_strong(std::uint64_t key, bool good,
                     PrefetchSource source = PrefetchSource::Software);

  [[nodiscard]] const HistoryTableConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t entries() const { return counters_.size(); }
  [[nodiscard]] std::uint8_t counter_value(std::size_t index) const;

  /// Storage cost in bytes (entries * counter_bits / 8) — the hardware
  /// budget figure quoted by the paper (4K entries * 2b = 1KB).
  [[nodiscard]] std::size_t storage_bytes() const;

  [[nodiscard]] std::uint64_t lookups() const { return lookups_.value(); }
  [[nodiscard]] std::uint64_t updates() const { return updates_.value(); }
  /// Fraction of counters that have moved away from the initial value —
  /// a cheap occupancy/aliasing indicator used in the table-size study.
  [[nodiscard]] double touched_fraction() const;

  /// Register this table's structural invariants (ppf::check): the size
  /// is the configured power of two and every saturating counter holds a
  /// value inside its width (2-bit counters in [0, 3]).
  void register_checks(check::CheckRegistry& reg,
                       const std::string& prefix) const;

  void reset();

 private:
  [[nodiscard]] std::size_t index_of(std::uint64_t key,
                                     PrefetchSource source) const;

  HistoryTableConfig cfg_;
  unsigned index_bits_;
  std::vector<SaturatingCounter> counters_;
  std::vector<bool> touched_;
  mutable Counter lookups_;
  Counter updates_;
};

}  // namespace ppf::filter
