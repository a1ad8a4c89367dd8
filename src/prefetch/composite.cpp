#include "prefetch/composite.hpp"

#include "common/assert.hpp"

namespace ppf::prefetch {

void CompositePrefetcher::add(std::unique_ptr<Prefetcher> p) {
  PPF_CHECK(p != nullptr);
  children_.push_back(std::move(p));
}

const Prefetcher& CompositePrefetcher::child(std::size_t i) const {
  PPF_CHECK(i < children_.size());
  return *children_[i];
}

void CompositePrefetcher::on_l1_demand(Pc pc, Addr addr,
                                       const mem::AccessResult& result,
                                       std::vector<PrefetchRequest>& out) {
  for (auto& c : children_) c->on_l1_demand(pc, addr, result, out);
}

void CompositePrefetcher::on_l2_demand(Pc pc, Addr addr, bool hit,
                                       std::vector<PrefetchRequest>& out) {
  for (auto& c : children_) c->on_l2_demand(pc, addr, hit, out);
}

void CompositePrefetcher::on_prefetch_fill(LineAddr line,
                                           PrefetchSource source) {
  for (auto& c : children_) c->on_prefetch_fill(line, source);
}

void CompositePrefetcher::on_prefetch_used(LineAddr line,
                                           PrefetchSource source) {
  for (auto& c : children_) c->on_prefetch_used(line, source);
}

void CompositePrefetcher::register_obs(obs::MetricRegistry& reg,
                                       const std::string& prefix) const {
  for (const auto& c : children_) c->register_obs(reg, prefix);
}

void CompositePrefetcher::register_checks(check::CheckRegistry& reg,
                                          const std::string& prefix) const {
  for (const auto& c : children_) c->register_checks(reg, prefix);
}

}  // namespace ppf::prefetch
