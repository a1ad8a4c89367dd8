#include "workload/benchmarks.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/assert.hpp"
#include "common/hash.hpp"

namespace ppf::workload {
namespace {

constexpr Pc kCodeBase = 0x0040'0000;
constexpr Addr kDataBase = 0x1000'0000;
constexpr unsigned kInstBytes = 4;

constexpr std::uint64_t KiB = 1024;
constexpr std::uint64_t MiB = 1024 * 1024;

/// Bump allocator for stream data regions, with a guard gap so streams
/// never alias each other.
class RegionAllocator {
 public:
  // Regions are staggered across cache sets (a deterministic sub-page
  // offset per region) — MB-aligned bases would all map to L1 set 0 and
  // manufacture pathological low-set conflicts no real heap layout has.
  Addr alloc(std::uint64_t bytes) {
    const Addr offset = ((count_++ * 97) % 256) * 32;
    const Addr a = next_ + offset;
    next_ += (bytes + offset + MiB - 1) / MiB * MiB + MiB;
    return a;
  }

 private:
  Addr next_ = kDataBase;
  Addr count_ = 0;
};

}  // namespace

SyntheticBenchmark::SyntheticBenchmark(BenchSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)),
      rng_(seed ^ mix64(0xBE0C'0000 + spec_.code_blocks)),
      block_picker_(spec_.code_blocks, spec_.code_zipf) {
  PPF_CHECK(!spec_.streams.empty());
  PPF_CHECK(spec_.code_blocks >= 2);
  PPF_CHECK(spec_.avg_block_len >= 3 &&
             spec_.avg_block_len <= kMaxBlockLen - 2);

  double total = 0.0;
  for (const StreamSpec& s : spec_.streams) {
    PPF_CHECK(s.stream != nullptr);
    PPF_CHECK(s.weight > 0.0);
    total += s.weight;
    cum_stream_weight_.push_back(total);
  }
  for (double& w : cum_stream_weight_) w /= total;

  Xorshift build_rng(seed ^ 0xC0DE'1A0CULL);
  build_code_layout(build_rng);
}

void SyntheticBenchmark::build_code_layout(Xorshift& build_rng) {
  // Pass 1: block shapes — lengths, coin branches, and which slots are
  // memory slots (streams assigned in pass 3).
  blocks_.resize(spec_.code_blocks);
  ZipfSampler target_picker(spec_.code_blocks, spec_.code_zipf);
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    Block& blk = blocks_[b];
    blk.base = kCodeBase + static_cast<Pc>(b) * kMaxBlockLen * kInstBytes;
    blk.coin_branch = build_rng.chance(spec_.coin_branch_frac);
    // Each branch has ONE taken target, fixed at build time (real
    // conditional branches are not indirect jumps); popular blocks are
    // targeted more often, which is what makes them popular.
    blk.taken_target = target_picker.sample(build_rng);
    if (blk.taken_target == b) {
      blk.taken_target = (b + 1) % spec_.code_blocks;
    }

    const unsigned lo = spec_.avg_block_len - 2;
    const unsigned hi = spec_.avg_block_len + 2;
    const unsigned len = static_cast<unsigned>(build_rng.between(lo, hi));
    for (unsigned i = 0; i + 1 < len; ++i) {
      Slot s;
      s.kind = build_rng.chance(spec_.mem_fraction) ? InstKind::Load
                                                    : InstKind::Op;
      blk.slots.push_back(s);
    }
    Slot br;
    br.kind = InstKind::Branch;
    blk.slots.push_back(br);
  }

  // Pass 2: stationary execution frequency of each block. Control flow is
  // "taken -> zipf-picked block, not-taken -> fall through", so block
  // popularity is strongly skewed; stream shares must be computed against
  // these frequencies, not against raw slot counts.
  const std::size_t n = blocks_.size();
  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  std::vector<double> nxt(n);
  for (int iter = 0; iter < 300; ++iter) {
    std::fill(nxt.begin(), nxt.end(), 0.0);
    for (std::size_t b = 0; b < n; ++b) {
      const double p_taken =
          blocks_[b].coin_branch ? 0.5 : spec_.branch_taken_prob;
      nxt[blocks_[b].taken_target] += pi[b] * p_taken;
      nxt[(b + 1) % n] += pi[b] * (1.0 - p_taken);
    }
    // Tiny uniform leak keeps the chain irreducible even if the fixed
    // targets happen to trap mass in a subgraph.
    for (double& v : nxt) v = 0.999 * v + 0.001 / static_cast<double>(n);
    pi.swap(nxt);
  }

  // Pass 3: deficit-greedy stream assignment. Each memory slot carries an
  // execution weight equal to its block's stationary frequency; slots are
  // assigned (heaviest first) to the stream furthest below its target
  // share, so the realised access mix matches the spec's weights.
  struct MemSlot {
    std::size_t block;
    std::size_t index;
    double weight;
  };
  std::vector<MemSlot> mem_slots;
  double total_weight = 0.0;
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t i = 0; i + 1 < blocks_[b].slots.size(); ++i) {
      if (blocks_[b].slots[i].kind == InstKind::Load) {
        mem_slots.push_back(MemSlot{b, i, pi[b]});
        total_weight += pi[b];
      }
    }
  }
  PPF_CHECK_MSG(!mem_slots.empty(), "benchmark has no memory slots");
  std::sort(mem_slots.begin(), mem_slots.end(),
            [](const MemSlot& a, const MemSlot& b) {
              return a.weight > b.weight;
            });

  std::vector<double> target(spec_.streams.size());
  for (std::size_t i = 0; i < target.size(); ++i) {
    const double prev = i == 0 ? 0.0 : cum_stream_weight_[i - 1];
    target[i] = cum_stream_weight_[i] - prev;
  }
  std::vector<double> assigned(spec_.streams.size(), 0.0);
  for (const MemSlot& ms : mem_slots) {
    std::size_t best = 0;
    double best_deficit = -1e300;
    for (std::size_t sid = 0; sid < target.size(); ++sid) {
      const double deficit = target[sid] - assigned[sid] / total_weight;
      if (deficit > best_deficit) {
        best_deficit = deficit;
        best = sid;
      }
    }
    blocks_[ms.block].slots[ms.index].stream = static_cast<int>(best);
    assigned[best] += ms.weight;
  }

  // Pass 4: materialise PCs, inserting software-prefetch companion slots
  // in front of loads bound to prefetchable streams.
  for (std::size_t b = 0; b < n; ++b) {
    Block& blk = blocks_[b];
    std::vector<Slot> expanded;
    expanded.reserve(blk.slots.size() + 4);
    unsigned pc_idx = 0;
    for (std::size_t i = 0; i < blk.slots.size(); ++i) {
      Slot s = blk.slots[i];
      if (s.kind == InstKind::Load) {
        const StreamSpec& ss =
            spec_.streams[static_cast<std::size_t>(s.stream)];
        if (ss.sw_prefetch_prob > 0.0 &&
            ss.stream->peek(ss.sw_prefetch_dist).has_value()) {
          Slot pf;
          pf.kind = InstKind::SwPrefetch;
          pf.pc = blk.base + pc_idx++ * kInstBytes;
          pf.stream = s.stream;
          pf.prefetch_of = static_cast<int>(expanded.size() + 1);
          expanded.push_back(pf);
        }
      }
      s.pc = blk.base + pc_idx++ * kInstBytes;
      expanded.push_back(s);
      PPF_ASSERT(pc_idx <= kMaxBlockLen);
    }
    blk.slots = std::move(expanded);
  }
}

std::size_t SyntheticBenchmark::pick_stream(Xorshift& rng) const {
  const double u = rng.uniform();
  for (std::size_t i = 0; i < cum_stream_weight_.size(); ++i) {
    if (u < cum_stream_weight_[i]) return i;
  }
  return cum_stream_weight_.size() - 1;
}

std::size_t SyntheticBenchmark::execute_block(TraceColumns out) {
  const std::size_t index = cur_block_;
  const Block& blk = blocks_[index];
  std::size_t len = 0;

  // Register convention (for the dataflow core): each stream's pointer
  // or index lives in register 1 + (stream % 8); load results land in a
  // round-robin of data registers 9..16; plain ops produce into 17..24.
  // A pointer chase both reads and writes its pointer register, which is
  // exactly what serialises it under true dependences.
  auto stream_preg = [](int sid) {
    return static_cast<std::uint8_t>(1 + (sid % 8));
  };

  // All slots except the final branch, which is handled below.
  for (std::size_t i = 0; i + 1 < blk.slots.size(); ++i) {
    const Slot& s = blk.slots[i];
    TraceRecord r;
    r.pc = s.pc;
    switch (s.kind) {
      case InstKind::Op:
        r.kind = InstKind::Op;
        // Some ops consume the latest load result (load-use dependence);
        // all produce a fresh temporary.
        if (last_data_reg_ != 0 && rng_.chance(0.4)) r.src1 = last_data_reg_;
        r.dst = static_cast<std::uint8_t>(17 + (op_reg_rr_++ % 8));
        break;
      case InstKind::SwPrefetch: {
        const StreamSpec& ss = spec_.streams[static_cast<std::size_t>(s.stream)];
        if (!rng_.chance(ss.sw_prefetch_prob)) continue;  // not emitted
        const auto future = ss.stream->peek(ss.sw_prefetch_dist);
        PPF_ASSERT(future.has_value());
        r.kind = InstKind::SwPrefetch;
        r.addr = *future;
        r.src1 = stream_preg(s.stream);  // address from the index/pointer
        break;
      }
      case InstKind::Load: {
        const StreamSpec& ss = spec_.streams[static_cast<std::size_t>(s.stream)];
        r.addr = ss.stream->next(rng_);
        r.kind = rng_.chance(spec_.store_fraction) ? InstKind::Store
                                                   : InstKind::Load;
        r.serial = ss.serial;
        r.src1 = stream_preg(s.stream);
        if (ss.serial) {
          // p = p->next: the chase load renews its own pointer register.
          if (r.kind == InstKind::Load) r.dst = stream_preg(s.stream);
        } else if (r.kind == InstKind::Load) {
          r.dst = static_cast<std::uint8_t>(9 + (data_reg_rr_++ % 8));
        }
        if (r.kind == InstKind::Store) {
          r.src2 = last_data_reg_;  // store the latest computed value
          r.dst = 0;
        } else if (r.dst >= 9 && r.dst <= 16) {
          last_data_reg_ = r.dst;
        }
        break;
      }
      default:
        PPF_ASSERT_MSG(false, "unexpected static slot kind");
    }
    out.put(len++, r);
  }

  // The block-ending branch: loop-biased or data-dependent coin.
  const double p_taken = blk.coin_branch ? 0.5 : spec_.branch_taken_prob;
  const bool taken = rng_.chance(p_taken);
  const std::size_t next_block =
      taken ? blk.taken_target : (index + 1) % blocks_.size();
  TraceRecord br;
  br.pc = blk.slots.back().pc;
  br.kind = InstKind::Branch;
  br.taken = taken;
  br.target = blocks_[next_block].base;
  // Data-dependent (coin) branches test the latest load result; loop
  // branches test a cheap induction temporary.
  if (blk.coin_branch && last_data_reg_ != 0) {
    br.src1 = last_data_reg_;
  } else if (op_reg_rr_ > 0) {
    br.src1 = static_cast<std::uint8_t>(17 + ((op_reg_rr_ - 1) % 8));
  }
  out.put(len++, br);
  cur_block_ = next_block;
  return len;
}

std::size_t SyntheticBenchmark::next_batch(TraceColumns out, std::size_t n) {
  // First the rest of a block that straddled the previous batch,
  std::size_t got = std::min(n, pending_len_ - pending_pos_);
  copy_columns(pending_.columns() + pending_pos_, out, got);
  pending_pos_ += got;
  // then whole blocks straight into `out` while one surely fits,
  while (n - got >= kMaxBlockLen) got += execute_block(out + got);
  // and the tail through the pending block.
  while (got < n) {
    pending_len_ = execute_block(pending_.columns());
    pending_pos_ = std::min(n - got, pending_len_);
    copy_columns(pending_.columns(), out + got, pending_pos_);
    got += pending_pos_;
  }
  return n;
}

const std::vector<std::string>& benchmark_names() {
  static const std::vector<std::string> names = {
      "bh",  "em3d",  "perimeter", "ijpeg", "fpppp",
      "gcc", "wave5", "gap",       "gzip",  "mcf"};
  return names;
}

PaperMissRates paper_miss_rates(std::string_view name) {
  // Table 2 of the paper.
  if (name == "bh") return {0.0464, 0.0026};
  if (name == "em3d") return {0.2161, 0.0001};
  if (name == "perimeter") return {0.0478, 0.2709};
  if (name == "ijpeg") return {0.0565, 0.0235};
  if (name == "fpppp") return {0.0807, 0.0003};
  if (name == "gcc") return {0.0551, 0.0221};
  if (name == "wave5") return {0.1387, 0.0209};
  if (name == "gap") return {0.0409, 0.2247};
  if (name == "gzip") return {0.0597, 0.3176};
  if (name == "mcf") return {0.0648, 0.2426};
  throw std::invalid_argument("unknown benchmark: " + std::string(name));
}

std::unique_ptr<SyntheticBenchmark> make_benchmark(std::string_view name,
                                                   std::uint64_t seed) {
  RegionAllocator mem;
  BenchSpec s;
  s.name = std::string(name);

  auto strided = [&](std::uint64_t stride, std::uint64_t region) {
    const Addr base = mem.alloc(region);
    return std::make_unique<StridedStream>(base, stride, region / stride);
  };
  auto chase = [&](std::uint64_t node_bytes, std::uint64_t region) {
    const Addr base = mem.alloc(region);
    return std::make_unique<PointerChaseStream>(
        base, node_bytes, static_cast<std::size_t>(region / node_bytes),
        seed ^ base);
  };
  auto zipf = [&](std::uint64_t region, std::uint64_t granule, double skew) {
    const Addr base = mem.alloc(region);
    return std::make_unique<ZipfStream>(base, region, granule, skew);
  };
  auto rnd = [&](std::uint64_t region, std::uint64_t granule) {
    const Addr base = mem.alloc(region);
    return std::make_unique<RandomStream>(base, region, granule);
  };
  auto block2d = [&](std::uint64_t row_bytes, std::uint64_t rows) {
    const Addr base = mem.alloc(row_bytes * rows);
    return std::make_unique<Block2DStream>(base, row_bytes, rows, 8, 8);
  };

  auto add = [&](std::unique_ptr<AddressStream> st, double w,
                 double swp = 0.0, unsigned dist = 8) {
    StreamSpec ss;
    // Pointer chases carry true data dependences between accesses.
    ss.serial = std::string_view(st->kind()) == "chase";
    ss.stream = std::move(st);
    ss.weight = w;
    ss.sw_prefetch_prob = swp;
    ss.sw_prefetch_dist = dist;
    s.streams.push_back(std::move(ss));
  };

  // Every benchmark contains, besides its characteristic miss streams, a
  // *hot pointer ring*: a small chase whose working set is L1-resident.
  // This is the live, irregular data real programs keep in the L1 (stack
  // frames, hash tables, allocator metadata): prefetchers cannot cover it
  // (data-dependent addresses) and every pollution eviction of one of its
  // lines costs a demand miss. It is what makes ineffective prefetches
  // expensive, per the paper's motivation.
  auto ring = [&](std::uint64_t region) { return chase(32, region); };

  if (name == "bh") {
    // Barnes-Hut: hot force-computation state, a modest octree walk, and a
    // body-array sweep. Everything fits the L2 (L2 misses are cold only).
    s.mem_fraction = 0.30;
    s.code_blocks = 48;
    add(strided(8, 1 * KiB), 0.618);              // hot math state
    add(ring(5 * KiB), 0.30);                     // tree-node hot set
    add(chase(32, 48 * KiB), 0.008);              // octree walk
    add(strided(8, 64 * KiB), 0.060, 0.35, 16);   // body array sweep
  } else if (name == "em3d") {
    // em3d: small graph chased for thousands of iterations; thrashes a
    // direct-mapped 8KB L1 but lives entirely in the L2.
    s.mem_fraction = 0.35;
    s.store_fraction = 0.15;
    s.code_blocks = 16;
    add(strided(8, 1 * KiB), 0.417);              // node scratch data
    add(ring(5 * KiB), 0.45);                     // hot node ring
    add(chase(16, 96 * KiB), 0.133, 0.20, 4);     // graph edges (h_list)
  } else if (name == "perimeter") {
    // perimeter: quadtree pointer chasing; the full tree is far larger
    // than the L2, the hot subtree is not.
    s.mem_fraction = 0.30;
    s.store_fraction = 0.10;
    s.code_blocks = 40;
    add(strided(8, 1 * KiB), 0.67);               // recursion stack
    add(ring(5 * KiB), 0.30);                     // upper-tree hot nodes
    add(chase(32, 1536 * KiB), 0.012);            // full quadtree (cold)
    add(chase(32, 96 * KiB), 0.018);              // hot subtree
  } else if (name == "ijpeg") {
    // ijpeg: 8x8 block DCT walks over an image that fits the L2, plus hot
    // quantisation tables. The compiler prefetches the block walk.
    s.mem_fraction = 0.32;
    s.store_fraction = 0.30;
    s.code_blocks = 32;
    add(strided(8, 1 * KiB), 0.66);               // quant/huffman tables
    add(ring(4 * KiB), 0.20);                     // coefficient state
    add(block2d(2 * KiB, 64), 0.124, 0.5, 16);    // 128KB image in tiles
    add(strided(8, 2 * MiB), 0.008, 0.3, 16);     // fresh input scanlines
  } else if (name == "fpppp") {
    // fpppp: dense FP kernel with huge basic blocks, moderate arrays that
    // overflow the L1 but sit comfortably in the L2.
    s.mem_fraction = 0.35;
    s.store_fraction = 0.30;
    s.branch_taken_prob = 0.95;
    s.coin_branch_frac = 0.02;
    s.code_blocks = 96;  // big code footprint
    s.avg_block_len = 24;
    add(strided(8, 1 * KiB), 0.55);
    add(ring(4 * KiB), 0.25);                     // live FP temporaries
    add(strided(8, 48 * KiB), 0.20, 0.25, 16);    // integral arrays
  } else if (name == "gcc") {
    // gcc: branchy, irregular heap traffic, large code footprint, little
    // regular structure for prefetchers to learn.
    s.mem_fraction = 0.28;
    s.store_fraction = 0.30;
    s.coin_branch_frac = 0.30;
    s.branch_taken_prob = 0.7;
    s.code_blocks = 384;
    s.code_zipf = 0.6;
    s.avg_block_len = 6;
    add(strided(8, 1 * KiB), 0.6428);             // stack frames
    add(ring(4 * KiB), 0.30);                     // RTL node hot set
    add(zipf(96 * KiB, 16, 1.05), 0.038);         // RTL heap (fits L2)
    add(rnd(8 * MiB, 32), 0.0012);                // cold symbol tables
  } else if (name == "wave5") {
    // wave5: Fortran array sweeps with line-sized strides over a particle
    // grid about the size of the L2.
    s.mem_fraction = 0.33;
    s.store_fraction = 0.25;
    s.code_blocks = 32;
    add(strided(8, 1 * KiB), 0.53);
    add(ring(4 * KiB), 0.30);                     // particle cell lists
    add(strided(32, 192 * KiB), 0.055, 0.45, 8);  // grid sweep, line stride
    add(strided(8, 96 * KiB), 0.112, 0.45, 16);   // particle arrays
    add(strided(32, 3 * MiB), 0.003, 0.45, 8);    // cold boundary arrays
  } else if (name == "gap") {
    // gap: computational group theory — pointer-rich bags over a multi-MB
    // heap with a skewed hot set.
    s.mem_fraction = 0.30;
    s.store_fraction = 0.25;
    s.code_blocks = 96;
    add(strided(8, 1 * KiB), 0.677);
    add(ring(5 * KiB), 0.30);                     // bag headers
    add(zipf(8 * MiB, 32, 0.5), 0.008);           // cold bag heap
    add(chase(32, 64 * KiB), 0.015);              // hot workspace
  } else if (name == "gzip") {
    // gzip: streaming input far larger than the L2 plus a 64KB sliding
    // window with heavy reuse.
    s.mem_fraction = 0.30;
    s.store_fraction = 0.30;
    s.code_blocks = 24;
    add(strided(8, 1 * KiB), 0.589);              // huffman state
    add(ring(4 * KiB), 0.25);                     // hash-chain hot heads
    add(strided(4, 16 * MiB), 0.136, 0.2, 16);    // input stream (cold)
    add(zipf(16 * KiB, 32, 0.6), 0.022);          // window hot span
  } else if (name == "mcf") {
    // mcf: network-simplex arc scans — scattered reads over a heap far
    // beyond the L2, the classic pointer-chasing memory hog.
    s.mem_fraction = 0.35;
    s.store_fraction = 0.20;
    s.code_blocks = 48;
    add(strided(8, 1 * KiB), 0.61);               // node scratch
    add(ring(5 * KiB), 0.35);                     // active node hot set
    add(rnd(4 * MiB, 64), 0.015);                 // arc array (cold)
    add(chase(32, 96 * KiB), 0.018);              // active node list
    add(strided(32, 128 * KiB), 0.007, 0.0, 8);   // arc sweep
  } else {
    throw std::invalid_argument("unknown benchmark: " + std::string(name));
  }

  return std::make_unique<SyntheticBenchmark>(std::move(s), seed);
}

}  // namespace ppf::workload
