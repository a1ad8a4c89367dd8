#include "prefetch/pmp.hpp"

#include "check/check.hpp"
#include "common/assert.hpp"
#include "common/bits.hpp"

namespace ppf::prefetch {

PmpPrefetcher::PmpPrefetcher(const mem::Cache& l1, PmpConfig cfg)
    : cfg_(cfg), l1_(&l1) {
  PPF_CHECK_MSG(is_pow2(cfg_.region_lines), "PMP region lines must be 2^n");
  PPF_CHECK_MSG(cfg_.region_lines >= 2 && cfg_.region_lines <= 64,
                "PMP region lines must fit the 64-bit footprint bitmap");
  PPF_CHECK(cfg_.filter_entries > 0 && cfg_.accum_entries > 0);
  offset_mask_ = cfg_.region_lines - 1;
  region_shift_ = log2_exact(cfg_.region_lines);
  filter_.resize(cfg_.filter_entries);
  accum_.resize(cfg_.accum_entries);
  // Votes start weakly-negative: a distance must prove itself in at
  // least one merged footprint before it is prefetched.
  pattern_.assign(
      static_cast<std::size_t>(cfg_.region_lines) * cfg_.region_lines,
      SaturatingCounter::weakly_negative(2));
}

void PmpPrefetcher::train(const AccumEntry& e) {
  // Merge the completed footprint into the anchor's pattern row. Column
  // d votes for "offset (anchor + d) mod region_lines is touched" — the
  // rotation makes patterns anchored anywhere in the region comparable.
  for (unsigned d = 1; d < cfg_.region_lines; ++d) {
    const unsigned off = (e.anchor + d) & offset_mask_;
    vote(e.anchor, d).update((e.bitmap >> off) & 1U);
  }
}

void PmpPrefetcher::promote(const FilterEntry& fe, unsigned second_offset) {
  AccumEntry& slot = accum_[accum_cursor_];
  accum_cursor_ = (accum_cursor_ + 1) % accum_.size();
  // The displaced region's accumulation is complete as far as we will
  // ever know — its merged footprint is the training signal.
  if (slot.valid) train(slot);
  slot.valid = true;
  slot.region = fe.region;
  slot.anchor = fe.anchor;
  slot.bitmap = (1ULL << fe.anchor) | (1ULL << second_offset);
}

void PmpPrefetcher::on_l1_demand(Pc pc, Addr addr, const mem::AccessResult&,
                                 std::vector<PrefetchRequest>& out) {
  const LineAddr line = l1_->line_of(addr);
  const std::uint64_t region = line >> region_shift_;
  const unsigned offset = static_cast<unsigned>(line) & offset_mask_;

  for (AccumEntry& e : accum_) {
    if (e.valid && e.region == region) {
      e.bitmap |= 1ULL << offset;
      return;
    }
  }
  for (FilterEntry& e : filter_) {
    if (e.valid && e.region == region) {
      if (offset == e.anchor) return;  // same line again: still 1 offset
      promote(e, offset);
      e.valid = false;
      return;
    }
  }

  // First touch of a fresh region: remember it and replay the pattern
  // learned for this anchor offset across the region.
  FilterEntry& slot = filter_[filter_cursor_];
  filter_cursor_ = (filter_cursor_ + 1) % filter_.size();
  slot.valid = true;
  slot.region = region;
  slot.anchor = offset;

  const std::uint64_t region_base = region << region_shift_;
  unsigned emitted = 0;
  for (unsigned d = 1; d < cfg_.region_lines; ++d) {
    if (cfg_.degree_cap != 0 && emitted >= cfg_.degree_cap) break;
    if (!vote(offset, d).predicts_positive()) continue;
    const unsigned target = (offset + d) & offset_mask_;
    out.push_back(PrefetchRequest{region_base | target, pc,
                                  PrefetchSource::RegionPattern});
    count_emitted();
    ++emitted;
  }
}

void PmpPrefetcher::on_l2_demand(Pc, Addr, bool, std::vector<PrefetchRequest>&) {}
void PmpPrefetcher::on_prefetch_fill(LineAddr, PrefetchSource) {}
void PmpPrefetcher::on_prefetch_used(LineAddr, PrefetchSource) {}

std::unique_ptr<Prefetcher> PmpPrefetcher::clone_rebound(
    mem::Cache& l1, mem::Cache&) const {
  auto copy = std::make_unique<PmpPrefetcher>(*this);
  copy->l1_ = &l1;
  return copy;
}

void PmpPrefetcher::register_checks(check::CheckRegistry& reg,
                                    const std::string& prefix) const {
  reg.add(prefix + ".pmp", [this](check::CheckContext& ctx) {
    ctx.require(pattern_.size() == static_cast<std::size_t>(cfg_.region_lines) *
                                       cfg_.region_lines,
                "pmp.pattern_geometry", [&] {
                  return std::to_string(pattern_.size()) + " votes for " +
                         std::to_string(cfg_.region_lines) + "-line regions";
                });
    for (std::size_t i = 0; i < accum_.size(); ++i) {
      const AccumEntry& e = accum_[i];
      if (!e.valid) continue;
      ctx.require((e.bitmap >> e.anchor) & 1U, "pmp.anchor_in_footprint",
                  [&] {
                    return "entry " + std::to_string(i) +
                           " footprint misses its anchor offset " +
                           std::to_string(e.anchor);
                  });
    }
  });
}

}  // namespace ppf::prefetch
