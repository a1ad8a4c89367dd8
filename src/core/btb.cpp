#include "core/btb.hpp"

#include "common/assert.hpp"
#include "common/bits.hpp"

namespace ppf::core {

Btb::Btb(BtbConfig cfg) : cfg_(cfg) {
  PPF_CHECK(is_pow2(cfg_.sets));
  PPF_CHECK(cfg_.ways >= 1);
  PPF_CHECK(is_pow2(cfg_.inst_bytes));
  set_bits_ = log2_exact(cfg_.sets);
  pc_shift_ = log2_exact(cfg_.inst_bytes);
  entries_.resize(cfg_.sets * cfg_.ways);
}

std::size_t Btb::set_of(Pc pc) const {
  return static_cast<std::size_t>((pc >> pc_shift_) & low_mask(set_bits_));
}

std::optional<Addr> Btb::lookup(Pc pc) {
  lookups_.add();
  Entry* base = &entries_[set_of(pc) * cfg_.ways];
  for (std::size_t w = 0; w < cfg_.ways; ++w) {
    if (base[w].valid() && base[w].tag == pc) {
      base[w].last_use = ++stamp_;
      hits_.add();
      return base[w].target;
    }
  }
  return std::nullopt;
}

void Btb::update(Pc pc, Addr target) {
  Entry* base = &entries_[set_of(pc) * cfg_.ways];
  Entry* victim = &base[0];
  for (std::size_t w = 0; w < cfg_.ways; ++w) {
    if (base[w].valid() && base[w].tag == pc) {
      victim = &base[w];
      break;
    }
    if (!base[w].valid()) {
      victim = &base[w];
      break;
    }
    if (base[w].last_use < victim->last_use) victim = &base[w];
  }
  victim->tag = pc;
  victim->target = target;
  victim->last_use = ++stamp_;
}

}  // namespace ppf::core
