#include "workload/benchmarks.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace ppf::workload {
namespace {

struct Mix {
  std::size_t total = 0;
  std::size_t mem = 0;
  std::size_t stores = 0;
  std::size_t branches = 0;
  std::size_t sw_prefetch = 0;
  std::size_t serial_loads = 0;
};

Mix sample_mix(TraceSource& src, std::size_t n) {
  Mix m;
  TraceRecord r;
  for (std::size_t i = 0; i < n && src.next(r); ++i) {
    ++m.total;
    switch (r.kind) {
      case InstKind::Load:
        ++m.mem;
        if (r.serial) ++m.serial_loads;
        break;
      case InstKind::Store:
        ++m.mem;
        break;
      case InstKind::Branch:
        ++m.branches;
        break;
      case InstKind::SwPrefetch:
        ++m.sw_prefetch;
        break;
      case InstKind::Op:
        break;
    }
    if (r.kind == InstKind::Store) ++m.stores;
  }
  return m;
}

TEST(Benchmarks, TableTwoListsTenPrograms) {
  EXPECT_EQ(benchmark_names().size(), 10u);
  for (const std::string& name : benchmark_names()) {
    EXPECT_NO_THROW({ auto b = make_benchmark(name, 1); });
  }
}

TEST(Benchmarks, UnknownNameThrows) {
  EXPECT_THROW(make_benchmark("spectral_norm", 1), std::invalid_argument);
  EXPECT_THROW(paper_miss_rates("nope"), std::invalid_argument);
}

/// The message a bad name throws, after checking that the name check
/// and the factory reject it alike.
std::string name_error(const std::string& name) {
  EXPECT_THROW(make_benchmark(name, 1), std::invalid_argument) << name;
  try {
    (void)parse_benchmark_name(name);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << name << " parsed";
  return "";
}

TEST(BenchmarkNames, OneProgramNamesItself) {
  const BenchmarkName n = parse_benchmark_name("gcc");
  EXPECT_EQ(n.programs, std::vector<std::string>{"gcc"});
  EXPECT_EQ(n.slice, 0u);
  EXPECT_STREQ(make_benchmark("gcc", 1)->name(), "gcc");
}

TEST(BenchmarkNames, MixNamesItsProgramsAndSlice) {
  const BenchmarkName n = parse_benchmark_name("em3d+gzip+mcf/100000");
  EXPECT_EQ(n.programs, (std::vector<std::string>{"em3d", "gzip", "mcf"}));
  EXPECT_EQ(n.slice, 100'000u);
  EXPECT_STREQ(make_benchmark("em3d+gzip/7", 1)->name(), "em3d+gzip/7");
  // A mix's printed name parses back to the same mix.
  const BenchmarkName back = parse_benchmark_name(
      make_benchmark("em3d+gzip+mcf/100000", 1)->name());
  EXPECT_EQ(back.programs, n.programs);
  EXPECT_EQ(back.slice, n.slice);
  std::string eight = "bh";
  for (std::size_t i = 1; i < kMaxMixPrograms; ++i) eight += "+bh";
  EXPECT_EQ(parse_benchmark_name(eight + "/1").programs.size(),
            kMaxMixPrograms);
}

TEST(BenchmarkNames, MixWithoutSliceIsRejected) {
  EXPECT_EQ(name_error("em3d+gzip"),
            "mix 'em3d+gzip': no /SLICE after its programs");
}

TEST(BenchmarkNames, ZeroSliceIsRejected) {
  EXPECT_EQ(name_error("em3d+gzip/0"),
            "mix 'em3d+gzip/0': slice '0' is not a positive decimal "
            "integer without a leading zero");
}

TEST(BenchmarkNames, SliceWithLeadingZeroIsRejected) {
  // One trace, one name: 0100 would be a second spelling of 100.
  EXPECT_EQ(name_error("em3d+gzip/0100"),
            "mix 'em3d+gzip/0100': slice '0100' is not a positive decimal "
            "integer without a leading zero");
}

TEST(BenchmarkNames, OneProgramMixIsRejected) {
  EXPECT_EQ(name_error("mcf/100"),
            "mix 'mcf/100': 1 program(s); a mix runs 2 to 8");
}

TEST(BenchmarkNames, NineProgramMixIsRejected) {
  EXPECT_EQ(name_error("bh+bh+bh+bh+bh+bh+bh+bh+bh/100"),
            "mix 'bh+bh+bh+bh+bh+bh+bh+bh+bh/100': 9 program(s); a mix runs "
            "2 to 8");
}

TEST(BenchmarkNames, UnknownProgramInAMixIsRejected) {
  EXPECT_EQ(name_error("mcf+nope/10"),
            "mix 'mcf+nope/10': unknown benchmark: nope");
  EXPECT_EQ(name_error("nope"), "unknown benchmark: nope");
}

TEST(Benchmarks, PaperMissRatesMatchTableTwo) {
  EXPECT_DOUBLE_EQ(paper_miss_rates("em3d").l1, 0.2161);
  EXPECT_DOUBLE_EQ(paper_miss_rates("gzip").l2, 0.3176);
  EXPECT_DOUBLE_EQ(paper_miss_rates("bh").l1, 0.0464);
}

TEST(Benchmarks, DeterministicForSameSeed) {
  auto a = make_benchmark("mcf", 42);
  auto b = make_benchmark("mcf", 42);
  TraceRecord ra, rb;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(a->next(ra));
    ASSERT_TRUE(b->next(rb));
    ASSERT_EQ(ra, rb) << "diverged at record " << i;
  }
}

TEST(Benchmarks, DifferentSeedsDiverge) {
  auto a = make_benchmark("mcf", 1);
  auto b = make_benchmark("mcf", 2);
  TraceRecord ra, rb;
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    a->next(ra);
    b->next(rb);
    same += (ra == rb) ? 1 : 0;
  }
  EXPECT_LT(same, 900);
}

TEST(Benchmarks, StreamIsEffectivelyInfinite) {
  auto b = make_benchmark("bh", 3);
  TraceRecord r;
  for (int i = 0; i < 200000; ++i) ASSERT_TRUE(b->next(r));
}

TEST(Benchmarks, PcKindBindingIsStable) {
  // A given PC must always carry the same static instruction class
  // (memory slots may alternate load/store, but an Op PC never becomes a
  // branch etc.) — the property PC-indexed hardware relies on.
  auto b = make_benchmark("gcc", 5);
  std::map<Pc, int> klass;  // 0 = op, 1 = mem, 2 = branch, 3 = swpf
  TraceRecord r;
  for (int i = 0; i < 100000; ++i) {
    b->next(r);
    int k = 0;
    if (r.kind == InstKind::Load || r.kind == InstKind::Store) k = 1;
    if (r.kind == InstKind::Branch) k = 2;
    if (r.kind == InstKind::SwPrefetch) k = 3;
    const auto it = klass.find(r.pc);
    if (it == klass.end()) {
      klass[r.pc] = k;
    } else {
      ASSERT_EQ(it->second, k) << "pc " << std::hex << r.pc;
    }
  }
  EXPECT_GT(klass.size(), 100u);  // non-trivial code footprint
}

TEST(Benchmarks, SoftwarePrefetchTargetsArriveAsLaterDemands) {
  auto b = make_benchmark("wave5", 7);
  TraceRecord r;
  std::vector<TraceRecord> window;
  for (int i = 0; i < 50000; ++i) {
    b->next(r);
    window.push_back(r);
  }
  // For each software prefetch, a demand access to the same line should
  // appear shortly after (the compiler prefetches dist elements ahead).
  int checked = 0, covered = 0;
  for (std::size_t i = 0; i < window.size() && checked < 200; ++i) {
    if (window[i].kind != InstKind::SwPrefetch) continue;
    ++checked;
    const Addr line = window[i].addr >> 5;
    for (std::size_t j = i + 1; j < std::min(window.size(), i + 2000); ++j) {
      if ((window[j].kind == InstKind::Load ||
           window[j].kind == InstKind::Store) &&
          (window[j].addr >> 5) == line) {
        ++covered;
        break;
      }
    }
  }
  ASSERT_GT(checked, 50);
  // Software prefetches are accurate (the paper's premise).
  EXPECT_GT(static_cast<double>(covered) / checked, 0.8);
}

TEST(Benchmarks, ChaseStreamsEmitSerialLoads) {
  const Mix m = [&] {
    auto b = make_benchmark("em3d", 11);
    return sample_mix(*b, 100000);
  }();
  EXPECT_GT(m.serial_loads, 1000u);  // em3d is chase-heavy
}

class BenchmarkMix : public ::testing::TestWithParam<std::string> {};

TEST_P(BenchmarkMix, InstructionMixIsPlausible) {
  auto b = make_benchmark(GetParam(), 13);
  const Mix m = sample_mix(*b, 100000);
  const double mem_frac = static_cast<double>(m.mem) / m.total;
  const double branch_frac = static_cast<double>(m.branches) / m.total;
  EXPECT_GT(mem_frac, 0.15) << GetParam();
  EXPECT_LT(mem_frac, 0.45) << GetParam();
  EXPECT_GT(branch_frac, 0.02) << GetParam();
  EXPECT_LT(branch_frac, 0.30) << GetParam();
  EXPECT_GT(m.stores, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllTen, BenchmarkMix,
                         ::testing::ValuesIn(benchmark_names()));

/// Columns of `n` records in plain vectors.
struct OwnedColumns {
  explicit OwnedColumns(std::size_t n)
      : pc(n), operand(n), op(n), dst(n), src1(n), src2(n) {}
  TraceColumns columns() {
    return {pc.data(),  operand.data(), op.data(),
            dst.data(), src1.data(),    src2.data()};
  }
  bool operator==(const OwnedColumns&) const = default;

  std::vector<std::uint64_t> pc, operand;
  std::vector<std::uint8_t> op, dst, src1, src2;
};

/// The first `n` records of `src`, read in next_batch calls of `chunk`.
OwnedColumns read_in_chunks(TraceSource& src, std::size_t n,
                            std::size_t chunk) {
  OwnedColumns out(n);
  for (std::size_t got = 0; got < n;) {
    const std::size_t want = std::min(chunk, n - got);
    EXPECT_EQ(src.next_batch(out.columns() + got, want), want);
    got += want;
  }
  return out;
}

class BenchmarkBatching : public ::testing::TestWithParam<std::string> {};

TEST_P(BenchmarkBatching, AnyBatchSplitYieldsTheSameColumns) {
  // Chunks of 63, 64 and 65 put a block's tail across a batch boundary
  // (blocks hold up to 64 records); 1 and 7 split every block.
  constexpr std::size_t kN = 20'000;
  const OwnedColumns whole =
      read_in_chunks(*make_benchmark(GetParam(), 13), kN, kN);
  for (const std::size_t chunk : {1, 7, 63, 64, 65, 1000}) {
    EXPECT_TRUE(read_in_chunks(*make_benchmark(GetParam(), 13), kN, chunk) ==
                whole)
        << GetParam() << " in chunks of " << chunk;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTen, BenchmarkBatching,
                         ::testing::ValuesIn(benchmark_names()));

}  // namespace
}  // namespace ppf::workload
