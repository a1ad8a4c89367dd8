#include "mem/cache.hpp"

#include <algorithm>

#include "check/check.hpp"
#include "common/assert.hpp"
#include "common/bits.hpp"
#include "obs/metrics.hpp"

namespace ppf::mem {

Cache::Cache(CacheConfig cfg, std::uint64_t rng_seed)
    : cfg_(std::move(cfg)), rng_(rng_seed) {
  PPF_CHECK_MSG(is_pow2(cfg_.line_bytes), "line size must be a power of two");
  PPF_CHECK_MSG(cfg_.size_bytes % cfg_.line_bytes == 0,
                 "cache size must be a multiple of the line size");
  offset_bits_ = log2_exact(cfg_.line_bytes);
  const std::uint64_t num_lines = cfg_.num_lines();
  PPF_CHECK(num_lines > 0);
  ways_ = cfg_.associativity == 0 ? num_lines : cfg_.associativity;
  PPF_CHECK_MSG(num_lines % ways_ == 0,
                 "line count must be a multiple of associativity");
  const std::uint64_t sets = num_lines / ways_;
  PPF_CHECK_MSG(is_pow2(sets), "set count must be a power of two");
  set_bits_ = log2_exact(sets);
  set_mask_ = sets - 1;
  tags_.resize(num_lines, 0);
  meta_.resize(num_lines);
  shadow_.resize(num_lines);
  scratch_view_.resize(ways_);
}

Eviction Cache::make_eviction(std::uint64_t set, std::size_t idx) const {
  const LineMeta& m = meta_[idx];
  Eviction ev;
  ev.line = line_from(set, tags_[idx]);
  ev.dirty = m.dirty;
  ev.pib = m.pib;
  ev.rib = m.rib;
  ev.trigger_pc = m.trigger_pc;
  ev.source = m.source;
  return ev;
}

std::optional<Eviction> Cache::fill(Addr addr, const FillInfo& info) {
  const LineAddr line = line_of(addr);
  const std::uint64_t set = set_index(line);
  const std::size_t base = set * ways_;

  // A racing fill for the same line (e.g. demand miss merging with an
  // in-flight prefetch) just refreshes the existing line.
  if (const std::size_t existing = find_way(line); existing != kNoWay) {
    meta_[existing].last_use = ++stamp_;
    meta_[existing].rrpv = 0;
    return std::nullopt;
  }

  std::size_t victim;
  if (ways_ == 1) {
    victim = 0;
  } else {
    for (std::uint64_t w = 0; w < ways_; ++w) {
      const LineMeta& m = meta_[base + w];
      scratch_view_[w] = WayState{m.valid, m.last_use, m.fill_seq, m.rrpv};
    }
    victim = choose_victim(std::span<WayState>(scratch_view_),
                           cfg_.replacement, rng_);
    if (uses_rrpv(cfg_.replacement)) {
      // The RRIP victim scan ages the whole set in place; persist the
      // aged counters back into the tag array.
      for (std::uint64_t w = 0; w < ways_; ++w) {
        meta_[base + w].rrpv = scratch_view_[w].rrpv;
      }
    }
  }

  std::optional<Eviction> ev;
  const std::size_t idx = base + victim;
  LineMeta& v = meta_[idx];
  if (v.valid) {
    ev = make_eviction(set, idx);
    evictions_.add();
    // Pollution proxy: a prefetch fill displacing a line that was actually
    // in use (demand-fetched, or a prefetched line that was referenced).
    if (info.is_prefetch && (!v.pib || v.rib)) prefetch_displacements_.add();
  }

  tags_[idx] = tag_of(line);
  v = LineMeta{};
  v.valid = true;
  v.dirty = info.dirty;
  v.pib = info.is_prefetch;
  v.trigger_pc = info.trigger_pc;
  v.source = info.source;
  v.fill_seq = ++stamp_;
  if (cfg_.replacement == ReplacementKind::Lip && ways_ > 1) {
    // LIP: insert at the stack bottom. Each insert takes a stamp below
    // every demand touch AND below the previous insert, so an untouched
    // run of fills is evicted newest-first — exactly the thrash
    // resistance LIP buys. A demand hit promotes to MRU as usual.
    v.last_use = --lip_stamp_;
  } else {
    v.last_use = stamp_;
  }
  v.rrpv = insertion_rrpv(cfg_.replacement, rng_);
  shadow_[idx] = ShadowEntry{};
  fills_.add();
  return ev;
}

std::optional<Eviction> Cache::invalidate(Addr addr) {
  const LineAddr line = line_of(addr);
  if (const std::size_t idx = find_way(line); idx != kNoWay) {
    Eviction ev = make_eviction(set_index(line), idx);
    meta_[idx].valid = false;
    evictions_.add();
    return ev;
  }
  return std::nullopt;
}

std::vector<Eviction> Cache::drain() {
  std::vector<Eviction> out;
  for (std::uint64_t set = 0; set <= set_mask_; ++set) {
    for (std::uint64_t w = 0; w < ways_; ++w) {
      const std::size_t idx = set * ways_ + w;
      if (meta_[idx].valid) {
        out.push_back(make_eviction(set, idx));
        meta_[idx].valid = false;
      }
    }
  }
  return out;
}

void Cache::set_nsp_tag(Addr addr, bool value) {
  if (const std::size_t idx = find_way(line_of(addr)); idx != kNoWay) {
    meta_[idx].nsp_tag = value;
  }
}

ShadowEntry* Cache::shadow_entry(Addr addr) {
  const std::size_t idx = find_way(line_of(addr));
  return idx == kNoWay ? nullptr : &shadow_[idx];
}

std::optional<std::uint64_t> Cache::victim_age(Addr addr) const {
  const LineAddr line = line_of(addr);
  const std::size_t base = set_index(line) * ways_;
  std::size_t victim = 0;  // a direct-mapped set has one candidate
  if (ways_ > 1) {
    for (std::uint64_t w = 0; w < ways_; ++w) {
      const LineMeta& m = meta_[base + w];
      scratch_view_[w] = WayState{m.valid, m.last_use, m.fill_seq, m.rrpv};
    }
    // Random replacement makes the victim non-deterministic; report the
    // LRU way's age as the representative (the gate is advisory anyway).
    // The RRIP kinds age only the scratch copy here — a probe must not
    // perturb the real counters.
    Xorshift probe_rng(1);
    const ReplacementKind kind = cfg_.replacement == ReplacementKind::Random
                                     ? ReplacementKind::Lru
                                     : cfg_.replacement;
    victim = choose_victim(std::span<WayState>(scratch_view_), kind,
                           probe_rng);
  }
  if (!meta_[base + victim].valid) return std::nullopt;
  return stamp_ - meta_[base + victim].last_use;
}

std::uint64_t Cache::hits(AccessType t) const {
  return hits_[static_cast<std::size_t>(t)].value();
}

std::uint64_t Cache::misses(AccessType t) const {
  return misses_[static_cast<std::size_t>(t)].value();
}

std::uint64_t Cache::total_hits() const {
  std::uint64_t s = 0;
  for (const auto& c : hits_) s += c.value();
  return s;
}

std::uint64_t Cache::total_misses() const {
  std::uint64_t s = 0;
  for (const auto& c : misses_) s += c.value();
  return s;
}

void Cache::reset_stats() {
  for (auto& c : hits_) c.reset();
  for (auto& c : misses_) c.reset();
  fills_.reset();
  evictions_.reset();
  prefetch_displacements_.reset();
}

void Cache::register_obs(obs::MetricRegistry& reg,
                         const std::string& prefix) const {
  reg.add_counter(prefix + ".demand_hits", [this] {
    return hits(AccessType::Load) + hits(AccessType::Store);
  });
  reg.add_counter(prefix + ".demand_misses", [this] {
    return misses(AccessType::Load) + misses(AccessType::Store);
  });
  reg.add_counter(prefix + ".total_hits", [this] { return total_hits(); });
  reg.add_counter(prefix + ".total_misses", [this] { return total_misses(); });
  reg.add_counter(prefix + ".fills", [this] { return fills(); });
  reg.add_counter(prefix + ".evictions", [this] { return evictions(); });
  reg.add_counter(prefix + ".prefetch_displacements",
                  [this] { return prefetch_displacements(); });
}

std::uint64_t Cache::pib_lines() const {
  std::uint64_t n = 0;
  for (const LineMeta& m : meta_) {
    if (m.valid && m.pib) ++n;
  }
  return n;
}

void Cache::corrupt_line_for_test(Addr addr, bool pib, bool rib) {
  const std::size_t idx = find_way(line_of(addr));
  PPF_CHECK_MSG(idx != kNoWay, "corrupt_line_for_test: line not resident");
  meta_[idx].pib = pib;
  meta_[idx].rib = rib;
}

void Cache::register_checks(check::CheckRegistry& reg,
                            const std::string& prefix) const {
  reg.add(prefix, [this](check::CheckContext& ctx) {
    const std::uint64_t lines = cfg_.num_lines();
    const bool soa_ok = tags_.size() == lines && meta_.size() == lines &&
                        shadow_.size() == lines &&
                        (set_mask_ + 1) * ways_ == lines;
    ctx.require(soa_ok, "cache.soa_parallel", [&] {
      return "tags=" + std::to_string(tags_.size()) +
             " meta=" + std::to_string(meta_.size()) +
             " shadow=" + std::to_string(shadow_.size()) +
             " expected=" + std::to_string(lines);
    });
    if (!soa_ok) return;  // the per-line walks below assume the geometry
    for (std::size_t i = 0; i < meta_.size(); ++i) {
      const LineMeta& m = meta_[i];
      if (!m.valid) continue;
      ctx.require(!m.rib || m.pib, "cache.rib_implies_pib", [&] {
        return "way index " + std::to_string(i) +
               " has RIB set on a non-prefetched line";
      });
      ctx.require(m.last_use <= stamp_ && m.fill_seq <= stamp_,
                  "cache.stamp_monotone", [&] {
                    return "way index " + std::to_string(i) + " last_use=" +
                           std::to_string(m.last_use) + " fill_seq=" +
                           std::to_string(m.fill_seq) + " > stamp=" +
                           std::to_string(stamp_);
                  });
      ctx.require(m.rrpv <= kRrpvMax, "cache.rrpv_range", [&] {
        return "way index " + std::to_string(i) + " rrpv=" +
               std::to_string(m.rrpv) + " > " + std::to_string(kRrpvMax);
      });
    }
    for (std::uint64_t set = 0; set <= set_mask_; ++set) {
      const std::size_t base = static_cast<std::size_t>(set * ways_);
      for (std::size_t a = 0; a < ways_; ++a) {
        if (!meta_[base + a].valid) continue;
        for (std::size_t b = a + 1; b < ways_; ++b) {
          ctx.require(!meta_[base + b].valid ||
                          tags_[base + a] != tags_[base + b],
                      "cache.duplicate_line", [&] {
                        return "set " + std::to_string(set) + " ways " +
                               std::to_string(a) + " and " + std::to_string(b) +
                               " hold the same tag";
                      });
        }
      }
    }
  });
}

}  // namespace ppf::mem
