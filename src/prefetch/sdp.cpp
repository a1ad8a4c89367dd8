#include "prefetch/sdp.hpp"

namespace ppf::prefetch {

ShadowDirectoryPrefetcher::ShadowDirectoryPrefetcher(mem::Cache& l2)
    : l2_(&l2) {}

void ShadowDirectoryPrefetcher::on_l1_demand(Pc, Addr,
                                             const mem::AccessResult&,
                                             std::vector<PrefetchRequest>&) {}

void ShadowDirectoryPrefetcher::on_l2_demand(Pc pc, Addr addr, bool hit,
                                             std::vector<PrefetchRequest>& out) {
  const LineAddr line = l2_->line_of(addr);

  if (!hit && has_last_) {
    // This miss becomes the shadow of the previously accessed line: "the
    // shadow line is the next line missed after the currently resident
    // line was last accessed". A shadow whose prefetch was confirmed
    // useful is kept; an unconfirmed one is replaced by the new miss.
    if (mem::ShadowEntry* prev = l2_->shadow_entry(last_access_base_)) {
      if (!prev->shadow_valid || !prev->confirmation) {
        prev->shadow_valid = true;
        prev->shadow = line;
        prev->confirmation = false;
        prev->tried = false;
        shadow_updates_.add();
      }
    }
  }

  if (hit) {
    if (mem::ShadowEntry* e = l2_->shadow_entry(addr)) {
      // Confirmation gating: a shadow is retried only while it proves
      // useful — an unused shadow prefetch is issued once and then muted
      // until the shadow itself is replaced by a new miss.
      if (e->shadow_valid && e->shadow != line &&
          (!e->tried || e->confirmation)) {
        out.push_back(
            PrefetchRequest{e->shadow, pc, PrefetchSource::ShadowDirectory});
        count_emitted();
        // Only the first (trial) issue is unconfirmed; once earned, the
        // confirmation persists until the shadow itself is replaced.
        e->tried = true;
        pending_confirmation_[e->shadow] = addr;
      }
    }
  }

  has_last_ = true;
  last_access_base_ = addr;
}

void ShadowDirectoryPrefetcher::on_prefetch_fill(LineAddr, PrefetchSource) {}

void ShadowDirectoryPrefetcher::on_prefetch_used(LineAddr line,
                                                 PrefetchSource source) {
  if (source != PrefetchSource::ShadowDirectory) return;
  const auto it = pending_confirmation_.find(line);
  if (it == pending_confirmation_.end()) return;
  if (mem::ShadowEntry* e = l2_->shadow_entry(it->second)) {
    if (e->shadow_valid && e->shadow == line) e->confirmation = true;
  }
  pending_confirmation_.erase(it);
}

std::unique_ptr<Prefetcher> ShadowDirectoryPrefetcher::clone_rebound(
    mem::Cache& /*l1*/, mem::Cache& l2) const {
  auto copy = std::make_unique<ShadowDirectoryPrefetcher>(*this);
  copy->l2_ = &l2;
  return copy;
}

}  // namespace ppf::prefetch
