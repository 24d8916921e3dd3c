// STMBench7-mini: a scaled-down reimplementation of STMBench7 (Guerraoui,
// Kapalka, Vitek -- EuroSys'07), the paper's primary macro-benchmark
// (Figures 3, 5, 8, 9).
//
// The full benchmark models a CAD/CAM object database.  This mini version
// keeps the pieces that drive the paper's conflict behaviour:
//   * a static assembly hierarchy (complex assemblies -> base assemblies ->
//     composite parts), traversed top-down by read operations;
//   * per-composite-part graphs of atomic parts with mutable attributes and
//     connections, traversed by short traversals and rewritten by
//     structural modifications;
//   * global id and build-date indices (transactional red-black trees) hit
//     by point lookups, range scans, and every structural modification --
//     the classic STMBench7 hot spots.
// Long traversals are omitted, matching the paper ("long traversals turned
// off").
//
// The three workload mixes follow the paper: read-dominated (90% reads),
// read-write (60%), write-dominated (10%).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "txstruct/rbtree.hpp"
#include "txstruct/tvar.hpp"
#include "util/rng.hpp"

namespace shrinktm::workloads {

enum class Sb7Mix { kReadDominated, kReadWrite, kWriteDominated };

inline const char* sb7_mix_name(Sb7Mix m) {
  switch (m) {
    case Sb7Mix::kReadDominated: return "read-dominated";
    case Sb7Mix::kReadWrite: return "read-write";
    case Sb7Mix::kWriteDominated: return "write-dominated";
  }
  return "?";
}

inline double sb7_read_fraction(Sb7Mix m) {
  switch (m) {
    case Sb7Mix::kReadDominated: return 0.90;
    case Sb7Mix::kReadWrite: return 0.60;
    case Sb7Mix::kWriteDominated: return 0.10;
  }
  return 0.5;
}

struct Sb7Config {
  Sb7Mix mix = Sb7Mix::kReadDominated;
  int assembly_fanout = 3;        ///< children per complex assembly
  int assembly_levels = 3;        ///< complex-assembly depth above the bases
  int bases_per_assembly = 3;     ///< base assemblies per leaf assembly
  int cparts_per_base = 3;        ///< composite parts per base assembly
  /// Initial atomic parts per composite part.  Real STMBench7 uses 200;
  /// 100 keeps setup fast while giving operations realistic lengths --
  /// short-traversal transactions must be long enough to overlap under
  /// preemption, or the overloaded regime the paper studies never appears.
  int atomic_per_cpart = 100;
  int connections = 3;            ///< outgoing edges per atomic part
  int extra_capacity = 20;        ///< growth slots per composite part
  std::uint64_t seed = 11;
};

class StmBench7 {
 public:
  explicit StmBench7(Sb7Config cfg = {}) : cfg_(cfg) {}

  StmBench7(const StmBench7&) = delete;
  StmBench7& operator=(const StmBench7&) = delete;
  ~StmBench7();

  template <typename Runner>
  void setup(Runner& r);

  template <typename Runner>
  void op(Runner& r, int tid, util::Xoshiro256& rng);

  template <typename Runner>
  bool verify(Runner& r);

  std::size_t live_parts() const { return part_index_.unsafe_size(); }

  /// Composite key for the build-date index: (date, id) packed so that
  /// entries are unique while remaining date-ordered.  Ids stay below 2^40
  /// (SM1's largest, for tid 127, is about 1.3e11) and dates below 1000,
  /// so the packing is injective.
  static constexpr std::int64_t kDateKeyIdSpan = std::int64_t{1} << 40;
  static std::int64_t date_key(std::int64_t date, std::uint64_t id) {
    return date * kDateKeyIdSpan + static_cast<std::int64_t>(id);
  }

 private:
  struct AtomicPart;
  struct CompositePart;
  struct BaseAssembly;
  struct ComplexAssembly;

  static constexpr int kMaxConnections = 4;

  struct AtomicPart {
    AtomicPart(std::uint64_t id_, std::int64_t date) : id(id_), build_date(date) {}
    const std::uint64_t id;
    txs::TVar<std::int64_t> x{0};
    txs::TVar<std::int64_t> y{0};
    txs::TVar<std::int64_t> build_date;
    txs::TVar<AtomicPart*> to[kMaxConnections] = {};
  };

  struct CompositePart {
    CompositePart(std::uint64_t id_, std::size_t capacity)
        : id(id_), slots(capacity) {}
    const std::uint64_t id;
    txs::TVar<std::int64_t> doc_size{0};
    txs::TVar<std::int64_t> nparts{0};
    std::vector<txs::TVar<AtomicPart*>> slots;  ///< parts live in [0, nparts)
  };

  struct BaseAssembly {
    std::uint64_t id;
    std::vector<CompositePart*> components;  // immutable after build
  };

  struct ComplexAssembly {
    std::uint64_t id;
    std::vector<ComplexAssembly*> children;  // immutable after build
    std::vector<BaseAssembly*> bases;        // leaves only
  };

  std::uint64_t random_cpart_id(util::Xoshiro256& rng) const {
    return cparts_[rng.next_below(cparts_.size())]->id;
  }

  /// All operations resolve composite parts through this transactional
  /// index, as in real STMBench7 -- the shared index path is what gives
  /// consecutive transactions of a thread their overlapping read sets
  /// (the temporal locality Shrink's prediction feeds on, Figure 3).
  template <typename Tx>
  CompositePart* lookup_cpart(Tx& tx, std::uint64_t id) {
    auto hit = cpart_index_.lookup(tx, static_cast<std::int64_t>(id));
    return hit ? *hit : nullptr;
  }

  // --- operations (templated over the transaction type) ---
  template <typename Tx>
  void short_traversal(Tx& tx, CompositePart* cp, bool write_attrs);
  template <typename Tx>
  void assembly_scan(Tx& tx, util::Xoshiro256& rng);
  template <typename Tx>
  bool index_lookup(Tx& tx, std::uint64_t id);
  template <typename Tx>
  int date_range_scan(Tx& tx, std::int64_t from, int limit);
  template <typename Tx>
  bool add_part(Tx& tx, CompositePart* cp, std::uint64_t id, std::int64_t date,
                util::Xoshiro256& rng);
  template <typename Tx>
  bool remove_part(Tx& tx, CompositePart* cp, util::Xoshiro256& rng);
  template <typename Tx>
  bool touch_date(Tx& tx, std::uint64_t id, std::int64_t new_date);

  /// Enter `p` in the build-date index.  Keys are unique per live part, so
  /// a refused insert means the two indices would diverge: throw instead.
  template <typename Tx>
  void index_date(Tx& tx, std::int64_t date, AtomicPart* p) {
    if (!date_index_.insert(tx, date_key(date, p->id), p))
      throw std::logic_error("stmbench7: duplicate build-date key");
  }

  static constexpr std::size_t kMaxTid = 128;

  Sb7Config cfg_;
  /// Per-thread id sequence for SM1 (disjoint id spaces avoid an artificial
  /// global-counter hot spot, mirroring STMBench7's id pools).
  std::array<std::uint64_t, kMaxTid> next_part_seq_{};
  ComplexAssembly* root_ = nullptr;
  std::vector<ComplexAssembly*> all_assemblies_;
  std::vector<BaseAssembly*> bases_;
  std::vector<CompositePart*> cparts_;
  txs::TxRBTree<std::int64_t, AtomicPart*> part_index_;      ///< by id
  txs::TxRBTree<std::int64_t, AtomicPart*> date_index_;      ///< by (date,id)
  txs::TxRBTree<std::int64_t, CompositePart*> cpart_index_;  ///< by id
  std::uint64_t next_static_id_ = 1;
  std::int64_t max_initial_date_ = 0;
};

// ---------------------------------------------------------------------------
// implementation
// ---------------------------------------------------------------------------

inline StmBench7::~StmBench7() {
  for (auto* cp : cparts_) {
    const auto n = cp->nparts.unsafe_read();
    for (std::int64_t i = 0; i < n; ++i) {
      AtomicPart* p = cp->slots[static_cast<std::size_t>(i)].unsafe_read();
      ::operator delete(p);
    }
    delete cp;
  }
  for (auto* b : bases_) delete b;
  for (auto* a : all_assemblies_) delete a;
}

template <typename Runner>
void StmBench7::setup(Runner& r) {
  util::Xoshiro256 rng(cfg_.seed);

  // Static assembly skeleton (plain memory: immutable after build).
  root_ = new ComplexAssembly{next_static_id_++, {}, {}};
  all_assemblies_.push_back(root_);
  std::vector<ComplexAssembly*> frontier{root_};
  for (int level = 1; level < cfg_.assembly_levels; ++level) {
    std::vector<ComplexAssembly*> next;
    for (auto* a : frontier) {
      for (int c = 0; c < cfg_.assembly_fanout; ++c) {
        auto* child = new ComplexAssembly{next_static_id_++, {}, {}};
        a->children.push_back(child);
        all_assemblies_.push_back(child);
        next.push_back(child);
      }
    }
    frontier = std::move(next);
  }
  for (auto* leaf : frontier) {
    for (int b = 0; b < cfg_.bases_per_assembly; ++b) {
      auto* base = new BaseAssembly{next_static_id_++, {}};
      leaf->bases.push_back(base);
      bases_.push_back(base);
      for (int c = 0; c < cfg_.cparts_per_base; ++c) {
        auto* cp = new CompositePart(
            next_static_id_++,
            static_cast<std::size_t>(cfg_.atomic_per_cpart + cfg_.extra_capacity));
        base->components.push_back(cp);
        cparts_.push_back(cp);
      }
    }
  }

  // Atomic part graphs + indices, built transactionally (exercises the same
  // code paths the workload uses).
  std::uint64_t part_id = 1'000'000;
  for (auto* cp : cparts_) {
    const std::uint64_t first_id = part_id;
    r.run([&](auto& tx) {
      cpart_index_.insert(tx, static_cast<std::int64_t>(cp->id), cp);
      std::vector<AtomicPart*> parts;
      for (int i = 0; i < cfg_.atomic_per_cpart; ++i) {
        const auto date = static_cast<std::int64_t>(rng.next_below(1000));
        max_initial_date_ = std::max(max_initial_date_, date);
        auto* p = new (tx.tx_alloc(sizeof(AtomicPart)))
            AtomicPart(first_id + static_cast<std::uint64_t>(i), date);
        parts.push_back(p);
        cp->slots[static_cast<std::size_t>(i)].write(tx, p);
        part_index_.insert(tx, static_cast<std::int64_t>(p->id), p);
        index_date(tx, date, p);
      }
      // Ring + chords: every part reachable, degree = cfg_.connections.
      const int n = static_cast<int>(parts.size());
      for (int i = 0; i < n; ++i) {
        parts[i]->to[0].write(tx, parts[(i + 1) % n]);
        for (int c = 1; c < cfg_.connections && c < kMaxConnections; ++c) {
          parts[i]->to[c].write(tx, parts[rng.next_below(n)]);
        }
      }
      cp->nparts.write(tx, n);
      cp->doc_size.write(tx, static_cast<std::int64_t>(100 + rng.next_below(900)));
    });
    part_id += static_cast<std::uint64_t>(cfg_.atomic_per_cpart) + 1000;
  }
}

template <typename Tx>
void StmBench7::short_traversal(Tx& tx, CompositePart* cp, bool write_attrs) {
  // DFS over the atomic-part graph from slot 0, bounded by the live count.
  const auto n = cp->nparts.read(tx);
  if (n == 0) return;
  AtomicPart* start = cp->slots[0].read(tx);
  std::vector<AtomicPart*> stack{start};
  std::vector<AtomicPart*> visited;
  std::int64_t acc = 0;
  while (!stack.empty() && static_cast<std::int64_t>(visited.size()) < n) {
    AtomicPart* p = stack.back();
    stack.pop_back();
    bool seen = false;
    for (auto* v : visited)
      if (v == p) {
        seen = true;
        break;
      }
    if (seen || p == nullptr) continue;
    visited.push_back(p);
    acc += p->x.read(tx) + p->y.read(tx);
    if (write_attrs) {
      // swap(x, y): the paper-style attribute update traversal
      const auto x = p->x.read(tx);
      const auto y = p->y.read(tx);
      p->x.write(tx, y);
      p->y.write(tx, x);
    }
    for (int c = 0; c < kMaxConnections; ++c) {
      AtomicPart* q = p->to[c].read(tx);
      if (q != nullptr) stack.push_back(q);
    }
  }
  if (!write_attrs && acc == 0x7fffffff) throw std::logic_error("unreachable");
}

template <typename Tx>
void StmBench7::assembly_scan(Tx& tx, util::Xoshiro256& rng) {
  // Walk root -> random child -> ... -> base assembly, then read each
  // component's document size and first part.
  ComplexAssembly* a = root_;
  while (!a->children.empty())
    a = a->children[rng.next_below(a->children.size())];
  if (a->bases.empty()) return;
  BaseAssembly* base = a->bases[rng.next_below(a->bases.size())];
  std::int64_t acc = 0;
  for (auto* cp : base->components) {
    acc += cp->doc_size.read(tx);
    if (cp->nparts.read(tx) > 0) {
      AtomicPart* p = cp->slots[0].read(tx);
      if (p != nullptr) acc += p->build_date.read(tx);
    }
  }
  (void)acc;
}

template <typename Tx>
bool StmBench7::index_lookup(Tx& tx, std::uint64_t id) {
  auto hit = part_index_.lookup(tx, static_cast<std::int64_t>(id));
  if (!hit) return false;
  AtomicPart* p = *hit;
  (void)p->x.read(tx);
  (void)p->build_date.read(tx);
  return true;
}

template <typename Tx>
int StmBench7::date_range_scan(Tx& tx, std::int64_t from, int limit) {
  int found = 0;
  std::int64_t key = date_key(from, 0);
  while (found < limit) {
    auto next = date_index_.lower_bound_key(tx, key);
    if (!next) break;
    auto hit = date_index_.lookup(tx, *next);
    if (hit) (void)(*hit)->y.read(tx);
    ++found;
    key = *next + 1;
  }
  return found;
}

template <typename Tx>
bool StmBench7::add_part(Tx& tx, CompositePart* cp, std::uint64_t id,
                         std::int64_t date, util::Xoshiro256& rng) {
  const auto n = cp->nparts.read(tx);
  if (n >= static_cast<std::int64_t>(cp->slots.size())) return false;  // full
  auto* p = new (tx.tx_alloc(sizeof(AtomicPart))) AtomicPart(id, date);
  if (!part_index_.insert(tx, static_cast<std::int64_t>(id), p)) {
    tx.restart();  // duplicate id: caller's id scheme guarantees this not to
  }
  index_date(tx, date, p);
  cp->slots[static_cast<std::size_t>(n)].write(tx, p);
  cp->nparts.write(tx, n + 1);
  // Link into the graph: new part points at an existing part and one
  // existing part gains an edge to it.
  if (n > 0) {
    AtomicPart* anchor =
        cp->slots[rng.next_below(static_cast<std::uint64_t>(n))].read(tx);
    p->to[0].write(tx, anchor);
    anchor->to[static_cast<int>(rng.next_below(kMaxConnections))].write(tx, p);
  }
  return true;
}

template <typename Tx>
bool StmBench7::remove_part(Tx& tx, CompositePart* cp, util::Xoshiro256& rng) {
  const auto n = cp->nparts.read(tx);
  if (n <= cfg_.atomic_per_cpart / 2) return false;  // keep graphs populated
  const auto victim_slot = 1 + rng.next_below(static_cast<std::uint64_t>(n - 1));
  AtomicPart* victim = cp->slots[victim_slot].read(tx);
  // Scrub incoming edges so the graph never dangles.
  for (std::int64_t i = 0; i < n; ++i) {
    AtomicPart* p = cp->slots[static_cast<std::size_t>(i)].read(tx);
    if (p == victim) continue;
    for (int c = 0; c < kMaxConnections; ++c) {
      if (p->to[c].read(tx) == victim) p->to[c].write(tx, nullptr);
    }
  }
  // Self-loops introduced above are fine for traversal (visited-set bounded).
  part_index_.erase(tx, static_cast<std::int64_t>(victim->id));
  date_index_.erase(tx, date_key(victim->build_date.read(tx), victim->id));
  // Swap-remove from the slot array.
  AtomicPart* last = cp->slots[static_cast<std::size_t>(n - 1)].read(tx);
  cp->slots[victim_slot].write(tx, last);
  cp->slots[static_cast<std::size_t>(n - 1)].write(tx, nullptr);
  cp->nparts.write(tx, n - 1);
  tx.tx_free(victim);
  return true;
}

template <typename Tx>
bool StmBench7::touch_date(Tx& tx, std::uint64_t id, std::int64_t new_date) {
  auto hit = part_index_.lookup(tx, static_cast<std::int64_t>(id));
  if (!hit) return false;
  AtomicPart* p = *hit;
  const auto old_date = p->build_date.read(tx);
  date_index_.erase(tx, date_key(old_date, p->id));
  p->build_date.write(tx, new_date);
  index_date(tx, new_date, p);
  return true;
}

template <typename Runner>
void StmBench7::op(Runner& r, int tid, util::Xoshiro256& rng) {
  const double read_fraction = sb7_read_fraction(cfg_.mix);
  const bool is_read = rng.next_bool(read_fraction);
  const std::uint64_t cp_id = random_cpart_id(rng);

  if (is_read) {
    switch (rng.next_below(4)) {
      case 0:  // ST1: short traversal over an atomic-part graph
        r.run([&](auto& tx) {
          if (CompositePart* cp = lookup_cpart(tx, cp_id))
            short_traversal(tx, cp, /*write_attrs=*/false);
        });
        break;
      case 1:  // ST2: assembly hierarchy walk
        r.run([&, rng2 = rng](auto& tx) mutable { assembly_scan(tx, rng2); });
        rng.next();
        break;
      case 2: {  // OP1: point index lookup
        const std::uint64_t id = 1'000'000 + rng.next_below(
            cparts_.size() * static_cast<std::uint64_t>(cfg_.atomic_per_cpart + 1000));
        r.run([&](auto& tx) { (void)index_lookup(tx, id); });
        break;
      }
      default: {  // OP2: build-date range scan
        const auto from = static_cast<std::int64_t>(rng.next_below(1000));
        r.run([&](auto& tx) { (void)date_range_scan(tx, from, 10); });
        break;
      }
    }
    return;
  }
  switch (rng.next_below(4)) {
    case 0: {  // SM1: create and link an atomic part
      const std::uint64_t id =
          10'000'000 + static_cast<std::uint64_t>(tid) * 1'000'000'000ULL +
          next_part_seq_[static_cast<std::size_t>(tid) % kMaxTid]++;
      const auto date = static_cast<std::int64_t>(rng.next_below(1000));
      // Value-capture the RNG so a retry replays the same decisions: real
      // operations have fixed parameters, which is what makes the aborted
      // attempt's write set a good prediction for the retry (paper §3).
      r.run([&, rng2 = rng](auto& tx) mutable {
        if (CompositePart* cp = lookup_cpart(tx, cp_id))
          (void)add_part(tx, cp, id, date, rng2);
      });
      rng.next();
      break;
    }
    case 1:  // SM2: delete an atomic part
      r.run([&, rng2 = rng](auto& tx) mutable {
        if (CompositePart* cp = lookup_cpart(tx, cp_id))
          (void)remove_part(tx, cp, rng2);
      });
      rng.next();
      break;
    case 2:  // SM3: attribute-update traversal (write-heavy)
      r.run([&](auto& tx) {
        if (CompositePart* cp = lookup_cpart(tx, cp_id))
          short_traversal(tx, cp, /*write_attrs=*/true);
      });
      break;
    default: {  // SM4: re-date a part (two index writes)
      const std::uint64_t id = 1'000'000 + rng.next_below(
          cparts_.size() * static_cast<std::uint64_t>(cfg_.atomic_per_cpart + 1000));
      const auto date = static_cast<std::int64_t>(rng.next_below(1000));
      r.run([&](auto& tx) { (void)touch_date(tx, id, date); });
      break;
    }
  }
}

template <typename Runner>
bool StmBench7::verify(Runner&) {
  // Quiescent-state invariants: both indices agree, live slot counts match
  // the id index, and the red-black trees are valid.
  if (part_index_.unsafe_check_invariants() < 0)
    throw std::runtime_error("stmbench7: part index violates RB invariants");
  if (date_index_.unsafe_check_invariants() < 0)
    throw std::runtime_error("stmbench7: date index violates RB invariants");
  const std::size_t indexed = part_index_.unsafe_size();
  if (indexed != date_index_.unsafe_size())
    throw std::runtime_error("stmbench7: index sizes diverge");
  std::size_t live = 0;
  for (const auto* cp : cparts_)
    live += static_cast<std::size_t>(cp->nparts.unsafe_read());
  if (live != indexed)
    throw std::runtime_error("stmbench7: live parts != indexed parts");
  return true;
}

}  // namespace shrinktm::workloads
