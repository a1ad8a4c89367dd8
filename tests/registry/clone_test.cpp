// Every registered policy's clone_rebound must carry all of its learned
// state. After the same warmup, a policy and its clone (bound to copies
// of the caches) are driven with the same further traffic and must
// answer it identically: a clone that lost a member answers like a
// fresh policy. A whole simulation does not always show such a loss (a
// stream buffer's streams or a stride table barely move a short mcf
// run), so this compares the policies' own outputs.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "filter/static_filter.hpp"
#include "mem/cache.hpp"
#include "registry/registry.hpp"

namespace ppf::registry {
namespace {

mem::CacheConfig cache_config(std::uint64_t size_bytes) {
  mem::CacheConfig cc;
  cc.size_bytes = size_bytes;
  cc.line_bytes = 32;
  cc.associativity = 2;
  return cc;
}

/// Access `i` of a fixed traffic pattern: even accesses walk a
/// sequential stream (strides, streams, region footprints), odd ones
/// cycle over 64 lines, more than the L1 holds (miss successors, L2
/// shadows).
struct Access {
  Pc pc;
  Addr addr;
};
Access access_at(std::uint64_t i) {
  if (i % 2 == 0) return {0x400, 0x100000 + (i / 2) * 32};
  return {0x404 + 4 * (i / 2 % 8), 0x800000 + (i / 2 * 37 % 64) * 64};
}

/// Accesses [begin, end) through a bare two-level hierarchy; returns
/// every candidate `p` emits.
std::vector<prefetch::PrefetchRequest> drive(prefetch::Prefetcher& p,
                                             mem::Cache& l1, mem::Cache& l2,
                                             std::uint64_t begin,
                                             std::uint64_t end) {
  std::vector<prefetch::PrefetchRequest> out;
  for (std::uint64_t i = begin; i < end; ++i) {
    const Access a = access_at(i);
    const mem::AccessResult r1 = l1.access(a.addr, AccessType::Load);
    p.on_l1_demand(a.pc, a.addr, r1, out);
    if (r1.hit) continue;
    const bool l2_hit = l2.access(a.addr, AccessType::Load).hit;
    p.on_l2_demand(a.pc, a.addr, l2_hit, out);
    if (!l2_hit) (void)l2.fill(a.addr, {});
    (void)l1.fill(a.addr, {});
  }
  return out;
}

bool same(const std::vector<prefetch::PrefetchRequest>& a,
          const std::vector<prefetch::PrefetchRequest>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].line != b[i].line || a[i].trigger_pc != b[i].trigger_pc ||
        a[i].source != b[i].source) {
      return false;
    }
  }
  return true;
}

class PrefetcherClone : public ::testing::TestWithParam<std::string> {};

TEST_P(PrefetcherClone, AnswersAsItsOriginal) {
  // The 64 cycled lines miss the L1 but stay in the L2, where their
  // shadows are set by the stream's misses.
  mem::Cache l1(cache_config(1024));
  mem::Cache l2(cache_config(64 * 1024));
  PrefetcherContext ctx;
  ctx.l1d = &l1;
  ctx.l2 = &l2;
  const auto original = make_prefetcher(GetParam(), ctx);
  (void)drive(*original, l1, l2, 0, 4000);

  mem::Cache l1_copy = l1;
  mem::Cache l2_copy = l2;
  const auto clone = original->clone_rebound(l1_copy, l2_copy);
  ASSERT_NE(clone, nullptr);
  const auto expected = drive(*original, l1, l2, 4000, 5000);
  const auto got = drive(*clone, l1_copy, l2_copy, 4000, 5000);
  EXPECT_FALSE(expected.empty());
  EXPECT_TRUE(same(expected, got))
      << expected.size() << " candidates from the original, " << got.size()
      << " from the clone";
  EXPECT_EQ(clone->candidates_emitted(), original->candidates_emitted());
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistered, PrefetcherClone, ::testing::ValuesIn(prefetcher_keys()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

/// Candidate `i` of a fixed pattern and its outcome: whether a line is
/// useful depends on the line and on the PC, so every table learns.
filter::PrefetchCandidate candidate_at(std::uint64_t i) {
  return {i * 7 % 512, 0x400 + 4 * (i % 64),
          i % 3 == 0 ? PrefetchSource::ShadowDirectory
                     : PrefetchSource::NextSequence};
}
bool useful(const filter::PrefetchCandidate& c) {
  return c.line % 3 == 0 || c.trigger_pc % 16 == 0;
}

/// Candidates [begin, end), each decided and then reported back;
/// returns the decisions.
std::vector<bool> decide(filter::PollutionFilter& f, std::uint64_t begin,
                         std::uint64_t end) {
  std::vector<bool> admitted;
  for (std::uint64_t i = begin; i < end; ++i) {
    const filter::PrefetchCandidate c = candidate_at(i);
    admitted.push_back(f.admit(c));
    f.feedback({c.line, c.trigger_pc, useful(c), c.source});
  }
  return admitted;
}

class FilterClone : public ::testing::TestWithParam<std::string> {};

TEST_P(FilterClone, DecidesAsItsOriginal) {
  const mem::Cache l1(cache_config(1024));
  FilterContext ctx;
  ctx.l1 = &l1;
  const auto original = make_filter(GetParam(), ctx);
  (void)decide(*original, 0, 4096);
  // A static filter decides only once its profile is frozen.
  if (auto* s = dynamic_cast<filter::StaticFilter*>(original.get())) {
    s->freeze();
  }

  const mem::Cache l1_copy = l1;
  const auto clone = original->clone_rebound(l1_copy);
  ASSERT_NE(clone, nullptr);
  EXPECT_EQ(decide(*clone, 4096, 6144), decide(*original, 4096, 6144));
  EXPECT_EQ(clone->admitted(), original->admitted());
  EXPECT_EQ(clone->rejected(), original->rejected());
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistered, FilterClone, ::testing::ValuesIn(filter_keys()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace ppf::registry
