#include "mem/line_buffer.hpp"

#include <unordered_set>

#include "check/check.hpp"
#include "common/assert.hpp"

namespace ppf::mem {

LineBuffer::LineBuffer(std::size_t entries) : slots_(entries) {
  PPF_CHECK(entries > 0);
}

std::optional<Eviction> LineBuffer::insert(const Eviction& rec) {
  inserts_.add();
  // The first free slot, else the least recently used one.
  Slot* victim = &slots_[0];
  for (Slot& s : slots_) {
    if (s.valid && s.record.line == rec.line) {
      s.record = rec;
      s.stamp = ++stamp_;
      return std::nullopt;
    }
    if (!s.valid) {
      if (victim->valid) victim = &s;
    } else if (victim->valid && s.stamp < victim->stamp) {
      victim = &s;
    }
  }
  std::optional<Eviction> displaced;
  if (victim->valid) displaced = victim->record;
  *victim = Slot{true, rec, ++stamp_};
  return displaced;
}

std::optional<Eviction> LineBuffer::take(LineAddr line) {
  probes_.add();
  for (Slot& s : slots_) {
    if (s.valid && s.record.line == line) {
      hits_.add();
      s.valid = false;
      return s.record;
    }
  }
  return std::nullopt;
}

bool LineBuffer::contains(LineAddr line) const {
  for (const Slot& s : slots_) {
    if (s.valid && s.record.line == line) return true;
  }
  return false;
}

std::vector<Eviction> LineBuffer::drain() {
  std::vector<Eviction> out;
  for (Slot& s : slots_) {
    if (s.valid) {
      out.push_back(s.record);
      s.valid = false;
    }
  }
  return out;
}

std::size_t LineBuffer::size() const {
  std::size_t n = 0;
  for (const Slot& s : slots_) n += s.valid ? 1 : 0;
  return n;
}

void LineBuffer::register_checks(check::CheckRegistry& reg,
                                 const std::string& prefix) const {
  reg.add(prefix, [this](check::CheckContext& ctx) {
    std::unordered_set<LineAddr> lines;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const Slot& s = slots_[i];
      if (!s.valid) continue;
      ctx.require(lines.insert(s.record.line).second,
                  "linebuf.duplicate_line", [&] {
                    return "line " + std::to_string(s.record.line) +
                           " held twice";
                  });
      ctx.require(s.stamp <= stamp_, "linebuf.stamp_monotone", [&] {
        return "slot " + std::to_string(i) + " stamp=" +
               std::to_string(s.stamp) + " > stamp=" + std::to_string(stamp_);
      });
      ctx.require(!s.record.rib || s.record.pib, "linebuf.rib_implies_pib",
                  [&] {
                    return "slot " + std::to_string(i) +
                           " has RIB set on a non-prefetched record";
                  });
    }
  });
}

void LineBuffer::reset_stats() {
  probes_.reset();
  hits_.reset();
  inserts_.reset();
}

}  // namespace ppf::mem
