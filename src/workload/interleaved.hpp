// Multiprogrammed workloads: round-robin interleaving of several trace
// sources with a context-switch interval.
//
// This is the scenario behind the paper's criticism of the static filter
// [18]: "it lacks the dynamic adaptivity during runtime when the working
// set changes". Context switches change the working set wholesale; a
// dynamic filter relearns, a frozen profile cannot. `bench_paper
// fig=phases` quantifies exactly that.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "workload/trace.hpp"

namespace ppf::workload {

class InterleavedTrace final : public TraceSource {
 public:
  /// Round-robin over `sources`, switching after `switch_interval`
  /// instructions of each. Address spaces are kept distinct by tagging
  /// the high bits with the program index (separate virtual address
  /// spaces); PCs are tagged the same way so predictor and filter state
  /// genuinely collide only through capacity, as on a real CPU.
  ///
  /// Finite sources: a program that runs out of instructions cedes the
  /// rest of its slice to the next one (each handoff counts as a context
  /// switch); the mix is exhausted only when every source is.
  InterleavedTrace(std::vector<std::unique_ptr<TraceSource>> sources,
                   std::uint64_t switch_interval);

  std::size_t next_batch(TraceColumns out, std::size_t n) override;
  [[nodiscard]] const char* name() const override { return name_.c_str(); }

  /// Context switches performed so far.
  [[nodiscard]] std::uint64_t switches() const { return switches_; }
  [[nodiscard]] std::size_t current_program() const { return current_; }

 private:
  std::vector<std::unique_ptr<TraceSource>> sources_;
  std::uint64_t switch_interval_;
  std::string name_;
  std::size_t current_ = 0;
  std::uint64_t issued_in_slice_ = 0;
  std::uint64_t switches_ = 0;
};

}  // namespace ppf::workload
