// Branch target buffer: 4-way set-associative, 4096 sets in the paper's
// configuration. A taken branch whose target misses the BTB costs a
// misfetch even when the direction prediction was right.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace ppf::core {

struct BtbConfig {
  std::size_t sets = 4096;  ///< power of two
  std::size_t ways = 4;
  unsigned inst_bytes = 4;
};

class Btb {
 public:
  explicit Btb(BtbConfig cfg);

  /// Predicted target for this branch PC, if present.
  [[nodiscard]] std::optional<Addr> lookup(Pc pc);

  /// Install/refresh the target for a taken branch.
  void update(Pc pc, Addr target);

  [[nodiscard]] std::uint64_t lookups() const { return lookups_.value(); }
  [[nodiscard]] std::uint64_t hits() const { return hits_.value(); }

 private:
  /// Stamps start at 1, so `last_use != 0` marks a valid entry.
  struct Entry {
    Pc tag = 0;
    Addr target = 0;
    std::uint64_t last_use = 0;

    [[nodiscard]] bool valid() const { return last_use != 0; }
  };
  static_assert(sizeof(Entry) == 24);

  [[nodiscard]] std::size_t set_of(Pc pc) const;

  BtbConfig cfg_;
  unsigned set_bits_;
  unsigned pc_shift_;
  std::vector<Entry> entries_;
  std::uint64_t stamp_ = 0;
  Counter lookups_;
  Counter hits_;
};

}  // namespace ppf::core
