// Stream-buffer prefetcher in the spirit of Jouppi (ISCA 1990), adapted
// to this simulator's candidate model: instead of holding data in FIFO
// buffers probed beside the cache, each tracked stream emits prefetch
// candidates that run `depth` lines ahead of the demand stream. An
// extension beyond the paper's NSP/SDP pair; exercised by the prefetcher
// zoo of `bench_paper fig=extras`.
#pragma once

#include <vector>

#include "prefetch/prefetcher.hpp"

namespace ppf::prefetch {

struct StreamBufferConfig {
  std::size_t num_streams = 4;  ///< concurrent streams tracked
  unsigned depth = 2;           ///< lines of lookahead per stream
};

class StreamBufferPrefetcher final : public Prefetcher {
 public:
  StreamBufferPrefetcher(const mem::Cache& l1, StreamBufferConfig cfg);

  void on_l1_demand(Pc pc, Addr addr, const mem::AccessResult& result,
                    std::vector<PrefetchRequest>& out) override;
  void on_l2_demand(Pc, Addr, bool, std::vector<PrefetchRequest>&) override {}
  void on_prefetch_fill(LineAddr, PrefetchSource) override {}
  void on_prefetch_used(LineAddr, PrefetchSource) override {}

  [[nodiscard]] const char* name() const override { return "stream_buffer"; }

  [[nodiscard]] std::size_t active_streams() const;

  [[nodiscard]] std::unique_ptr<Prefetcher> clone_rebound(
      mem::Cache& l1, mem::Cache& l2) const override;

 private:
  struct Stream {
    bool valid = false;
    LineAddr next = 0;        ///< next line this stream expects to serve
    std::uint64_t last_hit = 0;
  };

  const mem::Cache* l1_;
  StreamBufferConfig cfg_;
  std::vector<Stream> streams_;
  std::uint64_t stamp_ = 0;
};

}  // namespace ppf::prefetch
