#include "filter/adaptive_filter.hpp"

#include "check/check.hpp"
#include "common/assert.hpp"

namespace ppf::filter {

AdaptiveFilter::AdaptiveFilter(std::unique_ptr<PollutionFilter> inner,
                               AdaptiveConfig cfg)
    : inner_(std::move(inner)), cfg_(cfg) {
  PPF_CHECK(inner_ != nullptr);
  PPF_CHECK(cfg_.window > 0);
  PPF_CHECK(cfg_.release_threshold >= cfg_.accuracy_threshold);
}

bool AdaptiveFilter::decide(const PrefetchCandidate& c) {
  // Keep the inner filter's own admit/reject statistics meaningful by
  // always consulting it; only honour its rejection while engaged.
  const bool inner_says = inner_->admit(c);
  return engaged_ ? inner_says : true;
}

void AdaptiveFilter::feedback(const FilterFeedback& f) {
  inner_->feedback(f);
  ++window_events_;
  if (f.referenced) ++window_good_;
  if (window_events_ >= cfg_.window) {
    accuracy_ =
        static_cast<double>(window_good_) / static_cast<double>(window_events_);
    window_events_ = 0;
    window_good_ = 0;
    if (!engaged_ && accuracy_ < cfg_.accuracy_threshold) engaged_ = true;
    if (engaged_ && accuracy_ > cfg_.release_threshold) engaged_ = false;
  }
}

void AdaptiveFilter::register_checks(check::CheckRegistry& reg,
                                     const std::string& prefix) const {
  reg.add(prefix, [this](check::CheckContext& ctx) {
    ctx.require(window_good_ <= window_events_ && window_events_ < cfg_.window,
                "adaptive.window_accounting", [&] {
                  return "good " + std::to_string(window_good_) +
                         " events " + std::to_string(window_events_) +
                         " window " + std::to_string(cfg_.window);
                });
    ctx.require(accuracy_ >= 0.0 && accuracy_ <= 1.0, "adaptive.accuracy_unit",
                [&] { return "accuracy " + std::to_string(accuracy_); });
  });
  inner_->register_checks(reg, prefix);
}

std::unique_ptr<PollutionFilter> AdaptiveFilter::clone_rebound(
    const mem::Cache& l1) const {
  auto inner = inner_->clone_rebound(l1);
  if (!inner) return nullptr;
  std::unique_ptr<AdaptiveFilter> copy(new AdaptiveFilter(*this));
  copy->inner_ = std::move(inner);
  return copy;
}

}  // namespace ppf::filter
