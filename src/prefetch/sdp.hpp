// Shadow-Directory Prefetching (SDP) [Pomerene et al., U.S. Patent
// 4,807,110, 1989].
//
// Each L2 line keeps a *shadow* line address — the next line that missed
// after the resident line was last accessed — plus a confirmation bit that
// records whether the shadow prefetch was ever used. On a demand access to
// an L2 line whose shadow is valid, the shadow line is prefetched into the
// L1. The shadow state lives in the L2's tag array (Cache::shadow_entry).
#pragma once

#include <unordered_map>

#include "prefetch/prefetcher.hpp"

namespace ppf::prefetch {

class ShadowDirectoryPrefetcher final : public Prefetcher {
 public:
  /// `l2` must outlive the prefetcher.
  explicit ShadowDirectoryPrefetcher(mem::Cache& l2);

  void on_l1_demand(Pc pc, Addr addr, const mem::AccessResult& result,
                    std::vector<PrefetchRequest>& out) override;
  void on_l2_demand(Pc pc, Addr addr, bool hit,
                    std::vector<PrefetchRequest>& out) override;
  void on_prefetch_fill(LineAddr line, PrefetchSource source) override;
  void on_prefetch_used(LineAddr line, PrefetchSource source) override;

  [[nodiscard]] const char* name() const override { return "sdp"; }

  [[nodiscard]] std::uint64_t shadow_updates() const {
    return shadow_updates_.value();
  }

  [[nodiscard]] std::unique_ptr<Prefetcher> clone_rebound(
      mem::Cache& l1, mem::Cache& l2) const override;

 private:
  mem::Cache* l2_;
  /// Most recently accessed L2 line (byte base address), if any.
  bool has_last_ = false;
  Addr last_access_base_ = 0;
  /// Prefetched line -> L2 parent line whose shadow produced it, so a use
  /// of the prefetch can set the parent's confirmation bit.
  std::unordered_map<LineAddr, Addr> pending_confirmation_;
  Counter shadow_updates_;
};

}  // namespace ppf::prefetch
