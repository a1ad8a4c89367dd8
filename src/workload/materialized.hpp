// Materialized trace arenas.
//
// A runlab sweep runs many jobs over the *same* (benchmark, seed) trace —
// one per filter variant, per config variant. Streaming generation pays a
// virtual next() per record per job; a MaterializedTrace pays generation
// once, stores the records in structure-of-arrays form (~29 bytes per
// record instead of a 40-byte AoS TraceRecord), and hands every job a
// cheap TraceCursor view over the shared immutable buffer. Cursors are
// seekable, which is what makes warmup-snapshot reuse possible at all:
// a cloned post-warmup core must resume mid-trace, and the synthetic
// generators cannot seek.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workload/trace.hpp"

namespace ppf::workload {

/// Immutable pre-generated trace in SoA layout. Construct via
/// materialize(); share across threads freely (read-only after build).
class MaterializedTrace {
 public:
  /// Drain `count` records from `src` into the arena.
  MaterializedTrace(TraceSource& src, std::size_t count);

  [[nodiscard]] std::size_t size() const { return pc_.size(); }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Approximate resident bytes (arena sizing / cache-cap decisions).
  [[nodiscard]] std::size_t bytes() const;

  /// True when this arena can stand in for `prefix`: same trace name, at
  /// least as many records, and equal records at a fixed sample of
  /// `prefix`'s positions (its first and last record and evenly spaced
  /// ones between). A spot check in O(1), not a proof: it tells a regrown
  /// arena of the same (benchmark, seed) from another trace.
  [[nodiscard]] bool extends(const MaterializedTrace& prefix) const;

  /// Copy records [pos, pos+n) into `out`; n must not overrun size().
  void gather(std::size_t pos, TraceRecord* out, std::size_t n) const;

  /// Raw read-only pointers into the SoA columns the timing models
  /// consume (pc/kind/addr/target/flags). The occupancy core decodes
  /// straight from these, skipping the AoS TraceRecord round-trip that
  /// gather() pays. Valid for the arena's lifetime; flags bit 0 = taken,
  /// bit 1 = serial (the encoding the constructor writes).
  struct SoaView {
    const std::uint64_t* pc = nullptr;
    const std::uint8_t* kind = nullptr;
    const std::uint64_t* addr = nullptr;
    const std::uint64_t* target = nullptr;
    const std::uint8_t* flags = nullptr;
  };
  [[nodiscard]] SoaView view() const {
    return SoaView{pc_.data(), kind_.data(), addr_.data(), target_.data(),
                   flags_.data()};
  }

 private:
  friend class TraceCursor;

  std::string name_;
  // Hot fields first: the cores consume pc/kind/addr for every record.
  std::vector<std::uint64_t> pc_;
  std::vector<std::uint8_t> kind_;
  std::vector<std::uint64_t> addr_;
  std::vector<std::uint64_t> target_;
  std::vector<std::uint8_t> flags_;  ///< bit0 = taken, bit1 = serial
  std::vector<std::uint8_t> dst_;
  std::vector<std::uint8_t> src1_;
  std::vector<std::uint8_t> src2_;
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

  bool next(TraceRecord& out) override;
  std::size_t next_batch(TraceRecord* out, std::size_t n) override;
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
