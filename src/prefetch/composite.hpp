// Fan-out container running several prefetchers side by side, as the
// paper's default configuration does (NSP + SDP + software prefetches).
// It has no clone_rebound of its own: a cloned MemoryHierarchy fills its
// composite with clones of the original's children.
#pragma once

#include <memory>
#include <vector>

#include "prefetch/prefetcher.hpp"

namespace ppf::prefetch {

class CompositePrefetcher final : public Prefetcher {
 public:
  CompositePrefetcher() = default;

  /// Add a child prefetcher. Children are invoked in insertion order.
  void add(std::unique_ptr<Prefetcher> p);

  [[nodiscard]] std::size_t num_children() const { return children_.size(); }
  [[nodiscard]] const Prefetcher& child(std::size_t i) const;

  void on_l1_demand(Pc pc, Addr addr, const mem::AccessResult& result,
                    std::vector<PrefetchRequest>& out) override;
  void on_l2_demand(Pc pc, Addr addr, bool hit,
                    std::vector<PrefetchRequest>& out) override;
  void on_prefetch_fill(LineAddr line, PrefetchSource source) override;
  void on_prefetch_used(LineAddr line, PrefetchSource source) override;

  [[nodiscard]] const char* name() const override { return "composite"; }

  /// Forwards to every child so each engine registers under its own name.
  void register_obs(obs::MetricRegistry& reg,
                    const std::string& prefix) const override;

  /// Forwards to every child, like register_obs.
  void register_checks(check::CheckRegistry& reg,
                       const std::string& prefix) const override;

 private:
  std::vector<std::unique_ptr<Prefetcher>> children_;
};

}  // namespace ppf::prefetch
