// Materialized trace arenas.
//
// A runlab sweep runs many jobs over the *same* (benchmark, seed) trace —
// one per filter variant, per config variant. Streaming pays generation
// once per job; a MaterializedTrace pays it once, straight into the
// structure-of-arrays columns every bulk read fills (TraceColumns: six
// columns, 20 bytes per record instead of a 40-byte TraceRecord, since
// one operand word holds a record's address or its branch target), and
// hands every job a cheap TraceCursor view over the shared immutable
// buffer. Cursors are seekable, which is what makes warmup-snapshot reuse
// possible at all: a cloned post-warmup core must resume mid-trace, and
// the synthetic generators cannot seek.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "workload/trace.hpp"

namespace ppf::workload {

/// Immutable pre-generated trace in SoA layout. Construct via
/// materialize(); share across threads freely (read-only after build).
class MaterializedTrace {
 public:
  /// Allocate `count` records' columns, unfilled, and let `src` write
  /// them. A source that runs dry first yields a shorter arena.
  MaterializedTrace(TraceSource& src, std::size_t count);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Resident bytes of the columns (arena sizing / cache-cap decisions).
  [[nodiscard]] std::size_t bytes() const {
    return size_ * TraceColumns::kRecordBytes;
  }

  /// True when this arena can stand in for `prefix`: same trace name, at
  /// least as many records, and equal records at a fixed sample of
  /// `prefix`'s positions (its first and last record and evenly spaced
  /// ones between). A spot check in O(1), not a proof: it tells a regrown
  /// arena of the same (benchmark, seed) from another trace.
  [[nodiscard]] bool extends(const MaterializedTrace& prefix) const;

  /// Read-only columns over records [0, size()), valid for the arena's
  /// lifetime. The occupancy core decodes straight from these.
  [[nodiscard]] ColumnView view() const { return cols_; }

 private:
  /// Unfilled columns for `n` records, one allocation each.
  void allocate(std::size_t n);

  std::string name_;
  std::array<std::unique_ptr<std::uint64_t[]>, 2> words_;  ///< pc/operand
  std::array<std::unique_ptr<std::uint8_t[]>, 4> bytes_;  ///< op/dst/src1/src2
  TraceColumns cols_;
  std::size_t size_ = 0;
};

/// Build an arena of `count` records. Plain function so call sites read
/// as the verb they are.
[[nodiscard]] std::shared_ptr<const MaterializedTrace> materialize(
    TraceSource& src, std::size_t count);

/// Lightweight, copyable read cursor over a shared arena. Many cursors
/// (across threads) may read one arena concurrently.
class TraceCursor final : public TraceSource {
 public:
  explicit TraceCursor(std::shared_ptr<const MaterializedTrace> arena,
                       std::size_t start = 0);

  std::size_t next_batch(TraceColumns out, std::size_t n) override;
  [[nodiscard]] const char* name() const override {
    return arena_->name().c_str();
  }

  [[nodiscard]] std::size_t pos() const { return pos_; }
  void seek(std::size_t pos);
  [[nodiscard]] std::size_t remaining() const {
    return arena_->size() - pos_;
  }
  [[nodiscard]] const std::shared_ptr<const MaterializedTrace>& arena() const {
    return arena_;
  }

 private:
  std::shared_ptr<const MaterializedTrace> arena_;
  std::size_t pos_ = 0;
};

}  // namespace ppf::workload
