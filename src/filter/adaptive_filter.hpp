// Accuracy-gated filter — the "advanced feature" sketched at the end of
// Section 5.2.1: "our pollution filter can be made adaptive to start
// filtering when the prefetching becomes too aggressive (with low
// accuracy)".
//
// Wraps an inner dynamic filter (PA by default). A windowed estimate of
// prefetch accuracy (fraction of feedback events with RIB set) gates the
// inner decision: while accuracy is above the threshold the prefetcher is
// behaving, so everything is admitted; once it drops below, the inner
// filter takes over. Feedback always flows to the inner table so it stays
// warm for the moment it engages.
#pragma once

#include <memory>

#include "filter/filter.hpp"

namespace ppf::filter {

struct AdaptiveConfig {
  /// Engage filtering when windowed accuracy falls below this.
  double accuracy_threshold = 0.5;
  /// Disengage when it recovers above this (hysteresis; must be >=
  /// accuracy_threshold).
  double release_threshold = 0.6;
  /// Feedback events per accuracy window.
  std::uint64_t window = 1024;
};

class AdaptiveFilter final : public PollutionFilter {
 public:
  AdaptiveFilter(std::unique_ptr<PollutionFilter> inner, AdaptiveConfig cfg);

  void feedback(const FilterFeedback& f) override;
  [[nodiscard]] const char* name() const override { return "adaptive"; }

  /// Checks the window accounting and forwards to the inner filter's
  /// table checks.
  void register_checks(check::CheckRegistry& reg,
                       const std::string& prefix) const override;

  [[nodiscard]] bool engaged() const { return engaged_; }
  [[nodiscard]] double last_window_accuracy() const { return accuracy_; }
  [[nodiscard]] const PollutionFilter& inner() const { return *inner_; }

  /// Clones the wrapped inner filter too; nullptr if it is not cloneable.
  [[nodiscard]] std::unique_ptr<PollutionFilter> clone_rebound(
      const mem::Cache& l1) const override;

 protected:
  bool decide(const PrefetchCandidate& c) override;

 private:
  /// Only clone_rebound copies, and it gives the copy its own inner.
  AdaptiveFilter(const AdaptiveFilter&) = default;

  /// Shared only between the implicit copy and clone_rebound's
  /// replacement of it: no two filters keep one inner.
  std::shared_ptr<PollutionFilter> inner_;
  AdaptiveConfig cfg_;
  bool engaged_ = false;
  double accuracy_ = 1.0;  ///< optimistic until the first window closes
  std::uint64_t window_events_ = 0;
  std::uint64_t window_good_ = 0;
};

}  // namespace ppf::filter
