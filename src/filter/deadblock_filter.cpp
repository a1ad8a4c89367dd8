#include "filter/deadblock_filter.hpp"

#include "common/assert.hpp"

namespace ppf::filter {

DeadBlockFilter::DeadBlockFilter(const mem::Cache& l1, DeadBlockConfig cfg)
    : l1_(&l1),
      age_threshold_(static_cast<std::uint64_t>(
          cfg.age_multiple *
          static_cast<double>(l1.config().num_lines()))) {
  PPF_CHECK(cfg.age_multiple > 0.0);
}

bool DeadBlockFilter::decide(const PrefetchCandidate& c) {
  const auto age = l1_->victim_age(l1_->base_of(c.line));
  if (!age.has_value()) return true;  // free way: nothing to pollute
  return *age >= age_threshold_;      // only displace dead-looking lines
}

}  // namespace ppf::filter
