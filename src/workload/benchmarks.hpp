// The ten synthetic benchmarks standing in for the paper's SPEC95 /
// SPEC2000 / Olden programs (Table 2).
//
// We cannot run Alpha binaries, so each benchmark is a deterministic
// synthetic trace generator whose *reference statistics* — instruction
// mix, branch behaviour, code footprint, and above all the L1/L2 miss
// rates and the predictability of its prefetches — approximate the
// corresponding program. DESIGN.md documents the substitution;
// `bench_paper fig=table2` reports the achieved miss rates next to the
// paper's.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.hpp"
#include "workload/patterns.hpp"
#include "workload/trace.hpp"

namespace ppf::workload {

/// One reference stream inside a benchmark, with its share of memory
/// operations and its software-prefetch coverage (the compiler can only
/// prefetch streams whose future it can see).
struct StreamSpec {
  std::unique_ptr<AddressStream> stream;
  double weight = 1.0;
  double sw_prefetch_prob = 0.0;
  unsigned sw_prefetch_dist = 8;
  /// Pointer-chase semantics: each access's address depends on the data
  /// of the previous one, so its loads serialise in the core.
  bool serial = false;
};

/// Full description of a synthetic benchmark.
struct BenchSpec {
  std::string name;
  double mem_fraction = 0.30;       ///< loads+stores per instruction
  double store_fraction = 0.25;     ///< stores among memory ops
  double branch_taken_prob = 0.85;  ///< bias of loop-style branches
  double coin_branch_frac = 0.10;   ///< blocks with 50/50 data branches
  std::size_t code_blocks = 64;     ///< basic blocks (I-footprint)
  double code_zipf = 0.8;           ///< skew of block selection
  unsigned avg_block_len = 10;      ///< instructions per block (~1/branch%)
  std::vector<StreamSpec> streams;
};

/// Deterministic trace generator driven by a BenchSpec: a synthetic code
/// layout of basic blocks (stable PCs, one branch per block) whose memory
/// slots are bound to the spec's address streams.
class SyntheticBenchmark final : public TraceSource {
 public:
  /// Instructions a basic block holds at most. Every block spans this
  /// many PCs, so block bases do not depend on block lengths.
  static constexpr std::size_t kMaxBlockLen = 64;

  SyntheticBenchmark(BenchSpec spec, std::uint64_t seed);

  /// Infinite stream: always fills all `n` records.
  std::size_t next_batch(TraceColumns out, std::size_t n) override;

  [[nodiscard]] const char* name() const override {
    return spec_.name.c_str();
  }

 private:
  struct Slot {
    InstKind kind = InstKind::Op;
    Pc pc = 0;
    int stream = -1;     ///< bound stream for Load/Store slots
    int prefetch_of = -1;  ///< for SwPrefetch slots: companion mem slot
  };

  struct Block {
    Pc base = 0;
    std::vector<Slot> slots;  ///< last slot is the branch
    bool coin_branch = false;
    std::size_t taken_target = 0;  ///< fixed branch target (block index)
  };

  void build_code_layout(Xorshift& build_rng);
  /// Run the current block, writing its records to `out`; returns how
  /// many (at most kMaxBlockLen).
  std::size_t execute_block(TraceColumns out);
  [[nodiscard]] std::size_t pick_stream(Xorshift& rng) const;

  BenchSpec spec_;
  Xorshift rng_;
  std::vector<Block> blocks_;
  ZipfSampler block_picker_;
  std::vector<double> cum_stream_weight_;
  std::size_t cur_block_ = 0;
  /// The rest of a block that did not fit the previous batch.
  ColumnBuffer<kMaxBlockLen> pending_;
  std::size_t pending_pos_ = 0;
  std::size_t pending_len_ = 0;
  std::uint8_t last_data_reg_ = 0;  ///< most recent load-result register
  std::uint32_t data_reg_rr_ = 0;   ///< round-robin over data registers
  std::uint32_t op_reg_rr_ = 0;     ///< round-robin over op registers
};

/// Names of the ten paper benchmarks, in Table 2 order.
const std::vector<std::string>& benchmark_names();

/// Paper-reported miss rates (Table 2) for side-by-side reporting.
struct PaperMissRates {
  double l1;
  double l2;
};
PaperMissRates paper_miss_rates(std::string_view name);

/// Construct a named benchmark. Throws std::invalid_argument for an
/// unknown name.
std::unique_ptr<SyntheticBenchmark> make_benchmark(std::string_view name,
                                                   std::uint64_t seed);

}  // namespace ppf::workload
