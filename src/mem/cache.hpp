// Set-associative cache model with the pollution-filter feedback bits.
//
// Every line carries the two control bits the paper adds to the L1 tag
// array: the Prefetch Indication Bit (PIB — "this line was brought in by a
// prefetch") and the Reference Indication Bit (RIB — "this prefetched line
// was referenced at least once"). The NSP prefetcher's per-line tag bit and
// the SDP's per-L2-line shadow directory state also live here so the cache
// remains the single tag array, as in real hardware.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/replacement.hpp"

namespace ppf::obs {
class MetricRegistry;
}
namespace ppf::check {
class CheckRegistry;
}

namespace ppf::mem {

struct CacheConfig {
  std::string name = "L1D";
  std::uint64_t size_bytes = 8 * 1024;
  std::uint32_t line_bytes = 32;
  std::uint32_t associativity = 1;  ///< 0 means fully associative
  Cycle latency = 1;
  std::uint32_t ports = 3;
  ReplacementKind replacement = ReplacementKind::Lru;

  [[nodiscard]] std::uint64_t num_lines() const {
    return size_bytes / line_bytes;
  }
  [[nodiscard]] std::uint64_t num_sets() const {
    const std::uint64_t ways =
        associativity == 0 ? num_lines() : associativity;
    return num_lines() / ways;
  }
};

/// Metadata describing how a fill was produced, recorded into the line.
struct FillInfo {
  bool is_prefetch = false;
  Pc trigger_pc = 0;                ///< PC of the instruction that caused it
  PrefetchSource source = PrefetchSource::Software;
  bool dirty = false;               ///< restore-dirty (victim-cache recall)
};

/// Result of a demand (or prefetch-probe) lookup.
struct AccessResult {
  bool hit = false;
  /// Line had PIB set and this is the first demand touch (RIB flipped 0->1).
  bool first_use_of_prefetch = false;
  /// Line carried the NSP tag bit at the time of access (trigger condition).
  bool hit_nsp_tagged = false;
  /// Valid when first_use_of_prefetch: who prefetched the line.
  PrefetchSource source = PrefetchSource::Software;
};

/// Record of an evicted line, handed to the pollution filter and the
/// prefetch classifier.
struct Eviction {
  LineAddr line = 0;
  bool dirty = false;
  bool pib = false;
  bool rib = false;
  Pc trigger_pc = 0;
  PrefetchSource source = PrefetchSource::Software;
};

/// Per-L2-line shadow directory entry used by the SDP prefetcher. Every
/// line of every cache has one and every hierarchy clone copies them, so
/// the word comes first and the three flags share its padding.
struct ShadowEntry {
  LineAddr shadow = 0;
  bool shadow_valid = false;
  bool confirmation = false;  ///< was the shadow prefetch ever used
  bool tried = false;         ///< a prefetch of this shadow was issued
};
static_assert(sizeof(ShadowEntry) == 16);

class Cache {
 public:
  explicit Cache(CacheConfig cfg, std::uint64_t rng_seed = 1);

  // --- geometry ------------------------------------------------------
  [[nodiscard]] const CacheConfig& config() const { return cfg_; }
  [[nodiscard]] LineAddr line_of(Addr a) const { return a >> offset_bits_; }
  [[nodiscard]] Addr base_of(LineAddr l) const { return l << offset_bits_; }

  // --- access path ---------------------------------------------------

  /// Demand lookup: updates replacement state and the RIB on hit, records
  /// hit/miss statistics. Does NOT allocate on miss; call fill() when the
  /// data returns from the next level. Defined inline: this is the single
  /// hottest call on the demand path (one per load/store plus one per
  /// I-line change), and the call overhead itself was measurable.
  AccessResult access(Addr addr, AccessType type) {
    const LineAddr line = line_of(addr);
    const auto t = static_cast<std::size_t>(type);
    AccessResult r;
    const std::size_t idx = find_way(line);
    if (idx != kNoWay) {
      LineMeta& m = meta_[idx];
      r.hit = true;
      r.hit_nsp_tagged = m.nsp_tag;
      if (type != AccessType::Prefetch) {
        // Demand touch: consume the NSP tag and mark the prefetched line
        // as referenced (PIB/RIB protocol from Section 4 of the paper).
        m.nsp_tag = false;
        if (m.pib && !m.rib) {
          m.rib = true;
          r.first_use_of_prefetch = true;
          r.source = m.source;
        }
        if (type == AccessType::Store) m.dirty = true;
        m.last_use = ++stamp_;
        // RRIP hit promotion (near-immediate re-reference). Written
        // unconditionally — one byte store is cheaper than a policy
        // branch, and non-RRIP policies never read it.
        m.rrpv = 0;
      }
      hits_[t].add();
    } else {
      misses_[t].add();
    }
    return r;
  }

  /// Probe without any side effects (no stats, no LRU update).
  [[nodiscard]] bool contains(Addr addr) const {
    return find_way(line_of(addr)) != kNoWay;
  }

  /// Allocate a line for addr, evicting as needed.
  /// Returns the eviction record when a valid line was displaced.
  std::optional<Eviction> fill(Addr addr, const FillInfo& info);

  /// Invalidate a line if present; returns its eviction record.
  std::optional<Eviction> invalidate(Addr addr);

  /// Drain every valid line (end-of-simulation classification).
  [[nodiscard]] std::vector<Eviction> drain();

  // --- per-line prefetcher state --------------------------------------

  /// NSP tag bit: set on prefetch fill, cleared on demand touch.
  void set_nsp_tag(Addr addr, bool value);

  /// Shadow-directory entry for the set/way holding addr (SDP, L2 only).
  /// Returns nullptr when the line is not resident.
  ShadowEntry* shadow_entry(Addr addr);

  /// Recency information about the way a fill for `addr` would displace:
  /// nullopt when an invalid way exists (a "free" fill), otherwise the
  /// age of the victim in touch-sequence steps (current stamp minus the
  /// victim's last use). Used by the dead-block prefetch gate.
  [[nodiscard]] std::optional<std::uint64_t> victim_age(Addr addr) const;

  /// Monotone touch/fill sequence counter (units of victim_age).
  [[nodiscard]] std::uint64_t current_stamp() const { return stamp_; }

  // --- statistics ------------------------------------------------------
  [[nodiscard]] std::uint64_t hits(AccessType t) const;
  [[nodiscard]] std::uint64_t misses(AccessType t) const;
  [[nodiscard]] std::uint64_t total_hits() const;
  [[nodiscard]] std::uint64_t total_misses() const;
  [[nodiscard]] std::uint64_t fills() const { return fills_.value(); }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_.value(); }
  /// Demand misses whose victim was an unreferenced prefetched line would
  /// not be pollution; pollution_evictions counts evictions of *referenced
  /// demand-fetched or referenced* lines displaced by prefetch fills.
  [[nodiscard]] std::uint64_t prefetch_displacements() const {
    return prefetch_displacements_.value();
  }

  /// Register this cache's counters as `prefix.metric` (ppf::obs).
  void register_obs(obs::MetricRegistry& reg, const std::string& prefix) const;

  /// Register this cache's structural invariants (ppf::check): SoA array
  /// agreement, RIB⇒PIB, per-set tag uniqueness, stamp monotonicity.
  void register_checks(check::CheckRegistry& reg,
                       const std::string& prefix) const;

  /// Valid lines currently carrying the PIB — prefetched lines that are
  /// still resident, i.e. not yet classified good/bad by an eviction or
  /// the end-of-run drain. The in-flight term of the classifier
  /// conservation law (hier.classifier_conservation).
  [[nodiscard]] std::uint64_t pib_lines() const;

  /// Test-only: overwrite a resident line's PIB/RIB bits so invariant
  /// tests can prove a real corruption is caught. Never called by the
  /// simulator.
  void corrupt_line_for_test(Addr addr, bool pib, bool rib);

  void reset_stats();

 private:
  // Tag/metadata split (SoA): the lookup loop in find_way() touches only
  // the dense tags_ array (8 B per way) plus one byte-sized valid flag,
  // instead of dragging a ~64 B Line struct through the data cache per
  // probed way. Everything a hit or fill mutates lives in LineMeta;
  // shadow-directory state (SDP, L2 only) is a third parallel array so
  // it never pollutes the demand path's working set.
  struct LineMeta {
    bool valid = false;
    bool dirty = false;
    bool pib = false;
    bool rib = false;
    bool nsp_tag = false;
    std::uint8_t rrpv = 0;  ///< re-reference prediction value (RRIP kinds)
    PrefetchSource source = PrefetchSource::Software;
    Pc trigger_pc = 0;
    std::uint64_t last_use = 0;
    std::uint64_t fill_seq = 0;
  };

  static constexpr std::size_t kNoWay = static_cast<std::size_t>(-1);

  [[nodiscard]] std::uint64_t set_index(LineAddr line) const {
    return line & set_mask_;
  }
  [[nodiscard]] std::uint64_t tag_of(LineAddr line) const {
    return line >> set_bits_;
  }
  [[nodiscard]] LineAddr line_from(std::uint64_t set, std::uint64_t tag) const {
    return (tag << set_bits_) | set;
  }
  /// Flat index of the way holding `line`, or kNoWay. The valid check
  /// guards against a stale tag matching; there is no reserved tag value,
  /// so any 64-bit address is representable. Inline for the same reason
  /// as access(): it runs on every probe of every level.
  [[nodiscard]] std::size_t find_way(LineAddr line) const {
    const std::uint64_t tag = tag_of(line);
    const std::size_t base = set_index(line) * ways_;
    if (ways_ == 1) {
      // Direct-mapped fast path (the paper's L1): no way loop at all.
      return tags_[base] == tag && meta_[base].valid ? base : kNoWay;
    }
    for (std::uint64_t w = 0; w < ways_; ++w) {
      if (tags_[base + w] == tag && meta_[base + w].valid) return base + w;
    }
    return kNoWay;
  }
  Eviction make_eviction(std::uint64_t set, std::size_t idx) const;

  CacheConfig cfg_;
  unsigned offset_bits_;
  unsigned set_bits_;
  std::uint64_t set_mask_;   ///< sets - 1, precomputed for set_index()
  std::uint64_t ways_;
  /// Touch stamps start well above zero so the LIP fill path can hand
  /// out *decreasing* stamps below every demand touch: a LIP insert
  /// lands at the stack bottom, and a newer insert lands below an older
  /// one. Only stamp differences are ever consumed (victim_age, LRU
  /// comparisons), so the offset is invisible to every other policy.
  static constexpr std::uint64_t kStampBase = 1ULL << 32;

  std::vector<std::uint64_t> tags_;  ///< sets * ways, row-major by set
  std::vector<LineMeta> meta_;       ///< parallel to tags_
  std::vector<ShadowEntry> shadow_;  ///< parallel to tags_
  std::uint64_t stamp_ = kStampBase;  ///< monotone touch/fill sequence
  std::uint64_t lip_stamp_ = kStampBase;  ///< decreasing LIP insert stamp
  Xorshift rng_;
  std::vector<WayState> scratch_view_;  ///< reused by fill(); avoids allocs

  Counter hits_[4];
  Counter misses_[4];
  Counter fills_;
  Counter evictions_;
  Counter prefetch_displacements_;
};

}  // namespace ppf::mem
