#include "core/subsumption.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "engine/materialize.h"
#include "engine/operators.h"
#include "util/timer.h"

namespace recycledb {

namespace {

/// lo <= hi as interval endpoints (true when the interval [lo, hi] is
/// non-empty at these bounds).
bool LoLeHi(const RangeBound& lo, const RangeBound& hi) {
  if (lo.unbounded || hi.unbounded) return true;
  int c = lo.v.Compare(hi.v);
  if (c < 0) return true;
  if (c > 0) return false;
  return lo.inclusive && hi.inclusive;
}

/// outer.lo covers inner.lo (extends at least as far down).
bool LoCovers(const RangeBound& outer, const RangeBound& inner) {
  if (outer.unbounded) return true;
  if (inner.unbounded) return false;
  int c = outer.v.Compare(inner.v);
  if (c < 0) return true;
  if (c > 0) return false;
  return outer.inclusive || !inner.inclusive;
}

/// outer.hi covers inner.hi (extends at least as far up).
bool HiCovers(const RangeBound& outer, const RangeBound& inner) {
  if (outer.unbounded) return true;
  if (inner.unbounded) return false;
  int c = outer.v.Compare(inner.v);
  if (c > 0) return true;
  if (c < 0) return false;
  return outer.inclusive || !inner.inclusive;
}

/// min of two upper bounds (the more restrictive one).
RangeBound MinHi(const RangeBound& a, const RangeBound& b) {
  if (a.unbounded) return b;
  if (b.unbounded) return a;
  int c = a.v.Compare(b.v);
  if (c < 0) return a;
  if (c > 0) return b;
  RangeBound r = a;
  r.inclusive = a.inclusive && b.inclusive;
  return r;
}

RangeBound MinLo(const RangeBound& a, const RangeBound& b) {
  if (a.unbounded || b.unbounded) {
    RangeBound r;
    r.unbounded = true;
    return r;
  }
  int c = a.v.Compare(b.v);
  if (c < 0) return a;
  if (c > 0) return b;
  RangeBound r = a;
  r.inclusive = a.inclusive || b.inclusive;
  return r;
}

RangeBound MaxHi(const RangeBound& a, const RangeBound& b) {
  if (a.unbounded || b.unbounded) {
    RangeBound r;
    r.unbounded = true;
    return r;
  }
  int c = a.v.Compare(b.v);
  if (c > 0) return a;
  if (c < 0) return b;
  RangeBound r = a;
  r.inclusive = a.inclusive || b.inclusive;
  return r;
}

Scalar BoundValueOrNil(const RangeBound& b, TypeTag t) {
  return b.unbounded ? Scalar::Nil(t) : b.v;
}

/// Literal segments of a LIKE pattern (split on both wildcards): any string
/// matching the pattern is guaranteed to contain each segment.
std::vector<std::string> LikeSegments(const std::string& pattern) {
  std::vector<std::string> segs;
  std::string cur;
  for (char c : pattern) {
    if (c == '%' || c == '_') {
      if (!cur.empty()) segs.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) segs.push_back(cur);
  return segs;
}

/// True if `pattern` is of the form %s% with a single literal s and no
/// other wildcards.
bool IsContainsPattern(const std::string& pattern, std::string* literal) {
  if (pattern.size() < 2 || pattern.front() != '%' || pattern.back() != '%')
    return false;
  std::string inner = pattern.substr(1, pattern.size() - 2);
  if (inner.find('%') != std::string::npos ||
      inner.find('_') != std::string::npos)
    return false;
  *literal = inner;
  return true;
}

/// Dense heads and sorted key columns: head oid order IS row order.
bool HeadStrictlyAscending(const Bat& b) {
  const BatSide& h = b.head();
  return h.dense() || (h.col->sorted() && h.col->key());
}

/// Concatenates disjoint pieces of one select's operand, each in operand
/// order, back into operand order, so a combined result is
/// indistinguishable from a plain select over the operand: same rows, same
/// order, a sorted key head. The operand's head must be strictly ascending
/// (HeadStrictlyAscending), which makes operand order ascending head order.
Result<BatPtr> MergeInHeadOrder(const std::vector<BatPtr>& pieces) {
  RDB_ASSIGN_OR_RETURN(BatPtr all, engine::Concat(pieces));
  if (pieces.size() == 1) return all;
  const size_t n = all->size();
  // Concat materializes the head of two or more pieces.
  const Oid* heads = all->head().col->Data<Oid>().data() + all->head().offset;
  engine::SelVector sel(n);
  std::iota(sel.begin(), sel.end(), 0u);
  std::sort(sel.begin(), sel.end(),
            [heads](uint32_t a, uint32_t b) { return heads[a] < heads[b]; });
  BatSide head = engine::TakeSide(all->head(), n, sel);
  Column* hcol = const_cast<Column*>(head.col.get());  // fresh, unshared
  hcol->set_sorted(true);
  hcol->set_key(true);
  return Bat::Make(std::move(head), engine::TakeSide(all->tail(), n, sel), n);
}

}  // namespace

ValRange RangeOfSelect(const std::vector<MalValue>& args) {
  ValRange r;
  const Scalar& lo = args[1].scalar();
  const Scalar& hi = args[2].scalar();
  r.lo.unbounded = lo.is_nil();
  r.lo.v = lo;
  r.lo.inclusive = args[3].scalar().AsBit();
  r.hi.unbounded = hi.is_nil();
  r.hi.v = hi;
  r.hi.inclusive = args[4].scalar().AsBit();
  return r;
}

bool RangeCovers(const ValRange& outer, const ValRange& inner) {
  return LoCovers(outer.lo, inner.lo) && HiCovers(outer.hi, inner.hi);
}

bool RangeOverlaps(const ValRange& a, const ValRange& b) {
  return LoLeHi(a.lo, b.hi) && LoLeHi(b.lo, a.hi);
}

std::optional<SubsumeOutcome> SubsumptionEngine::TrySelect(
    Opcode op, const std::vector<MalValue>& args, uint64_t visible_epoch) {
  if (!args[0].is_bat()) return std::nullopt;
  uint64_t src_bat = args[0].bat()->id();

  ValRange target;
  if (op == Opcode::kSelect) {
    target = RangeOfSelect(args);
  } else if (op == Opcode::kUselect) {
    target.lo = {args[1].scalar(), true, false};
    target.hi = {args[1].scalar(), true, false};
  } else {
    return std::nullopt;
  }
  // Unbounded-both-ways targets are the whole column; nothing to gain.
  if (target.lo.unbounded && target.hi.unbounded) return std::nullopt;

  std::vector<PoolEntry*> cands =
      pool_->FindByOpAndFirstArg(Opcode::kSelect, src_bat, visible_epoch);
  if (cands.empty()) return std::nullopt;

  // --- singleton subsumption (§5.1): cheapest covering intermediate -------
  PoolEntry* best = nullptr;
  for (PoolEntry* c : cands) {
    ValRange cr = RangeOfSelect(c->args);
    if (!RangeCovers(cr, target)) continue;
    if (best == nullptr || c->result_rows < best->result_rows) best = c;
  }
  if (best != nullptr) {
    const BatPtr& inter = best->results[0].bat();
    TypeTag t = inter->tail().LogicalType();
    auto r = engine::Select(inter, BoundValueOrNil(target.lo, t),
                            BoundValueOrNil(target.hi, t), target.lo.inclusive,
                            target.hi.inclusive);
    if (!r.ok()) return std::nullopt;
    SubsumeOutcome out;
    out.results.emplace_back(std::move(r).value());
    out.sources.push_back(best);
    return out;
  }

  if (!opts_.allow_combined) return std::nullopt;
  return TryCombined(target, args, std::move(cands));
}

std::optional<SubsumeOutcome> SubsumptionEngine::TryCombined(
    const ValRange& target, const std::vector<MalValue>& args,
    std::vector<PoolEntry*> cands) {
  // The pieces come back in range order; only a strictly ascending operand
  // head lets MergeInHeadOrder restore the operand's row order from oids.
  if (!HeadStrictlyAscending(*args[0].bat())) return std::nullopt;
  StopWatch alg_timer;

  // R: candidates overlapping the target (Algorithm 2 lines 6-9), bounded to
  // keep the subset search tractable; prefer small intermediates.
  std::vector<PoolEntry*> r_set;
  std::vector<ValRange> r_range;
  for (PoolEntry* c : cands) {
    ValRange cr = RangeOfSelect(c->args);
    if (RangeOverlaps(cr, target)) r_set.push_back(c);
  }
  if (r_set.size() < 2) return std::nullopt;
  if (r_set.size() > opts_.max_candidates) {
    std::sort(r_set.begin(), r_set.end(),
              [](const PoolEntry* a, const PoolEntry* b) {
                return a->result_rows < b->result_rows;
              });
    r_set.resize(opts_.max_candidates);
  }
  r_range.reserve(r_set.size());
  for (PoolEntry* c : r_set) r_range.push_back(RangeOfSelect(c->args));

  // Cost of the regular computation: the size of the column operand
  // (§5.2, C(Xi) = Sz(Xi)); combined solutions must beat it.
  size_t base_cost = args[0].bat()->size();

  struct Combo {
    uint32_t mask;
    ValRange hull;  // connected union of member ranges
    size_t cost;
  };

  uint32_t best_mask = 0;
  size_t best_cost = base_cost;

  // Seed with singletons (none covers the target or the singleton path
  // would have fired; they remain partial solutions).
  std::vector<Combo> p1;
  for (size_t i = 0; i < r_set.size(); ++i) {
    size_t cost = r_set[i]->result_rows + opts_.overhead_rows;
    if (cost >= best_cost) continue;
    p1.push_back({static_cast<uint32_t>(1u << i), r_range[i], cost});
  }

  // Grow combinations, pruning on estimated cost (Algorithm 2 lines 10-21).
  for (size_t n = 1; n < r_set.size() && !p1.empty(); ++n) {
    std::vector<Combo> p2;
    std::unordered_set<uint32_t> seen;
    for (const Combo& s : p1) {
      for (size_t i = 0; i < r_set.size(); ++i) {
        uint32_t bit = 1u << i;
        if (s.mask & bit) continue;
        if (!RangeOverlaps(s.hull, r_range[i])) continue;
        uint32_t mask = s.mask | bit;
        if (seen.count(mask)) continue;
        size_t cost = s.cost + r_set[i]->result_rows;
        if (cost >= best_cost) continue;
        Combo u;
        u.mask = mask;
        u.hull.lo = MinLo(s.hull.lo, r_range[i].lo);
        u.hull.hi = MaxHi(s.hull.hi, r_range[i].hi);
        u.cost = cost;
        if (RangeCovers(u.hull, target)) {
          best_mask = mask;
          best_cost = cost;
        } else {
          seen.insert(mask);
          p2.push_back(u);
        }
      }
    }
    p1 = std::move(p2);
  }

  double alg_ms = alg_timer.ElapsedMillis();
  if (best_mask == 0) return std::nullopt;

  // --- piecewise execution over disjoint sub-ranges -----------------------
  std::vector<size_t> chosen;
  for (size_t i = 0; i < r_set.size(); ++i) {
    if (best_mask & (1u << i)) chosen.push_back(i);
  }
  std::sort(chosen.begin(), chosen.end(), [&](size_t a, size_t b) {
    // ascending by lower bound; unbounded lows first
    const RangeBound& la = r_range[a].lo;
    const RangeBound& lb = r_range[b].lo;
    if (la.unbounded != lb.unbounded) return la.unbounded;
    if (la.unbounded) return false;
    int c = la.v.Compare(lb.v);
    if (c != 0) return c < 0;
    return la.inclusive && !lb.inclusive;
  });

  RangeBound pos = target.lo;
  std::vector<BatPtr> pieces;
  std::vector<PoolEntry*> used;
  bool done = false;
  for (size_t idx : chosen) {
    const ValRange& cr = r_range[idx];
    if (!LoLeHi(pos, cr.hi)) continue;      // already covered past this one
    if (!LoCovers(cr.lo, pos)) return std::nullopt;  // gap: abort
    RangeBound piece_hi = MinHi(cr.hi, target.hi);
    const BatPtr& inter = r_set[idx]->results[0].bat();
    TypeTag t = inter->tail().LogicalType();
    auto piece = engine::Select(inter, BoundValueOrNil(pos, t),
                                BoundValueOrNil(piece_hi, t), pos.inclusive,
                                piece_hi.inclusive);
    if (!piece.ok()) return std::nullopt;
    pieces.push_back(std::move(piece).value());
    used.push_back(r_set[idx]);
    if (HiCovers(piece_hi, target.hi)) {
      done = true;
      break;
    }
    pos.v = piece_hi.v;
    pos.inclusive = !piece_hi.inclusive;
    pos.unbounded = false;
  }
  if (!done || pieces.empty()) return std::nullopt;

  auto merged = MergeInHeadOrder(pieces);
  if (!merged.ok()) return std::nullopt;

  SubsumeOutcome out;
  out.results.emplace_back(std::move(merged).value());
  out.sources = std::move(used);
  out.combined = true;
  out.algorithm_ms = alg_ms;
  return out;
}

std::optional<SubsumeOutcome> SubsumptionEngine::TryLike(
    const std::vector<MalValue>& args, uint64_t visible_epoch) {
  if (!args[0].is_bat()) return std::nullopt;
  uint64_t src_bat = args[0].bat()->id();
  const std::string& pattern = args[1].scalar().AsStr();
  std::vector<std::string> segments = LikeSegments(pattern);

  std::vector<PoolEntry*> cands =
      pool_->FindByOpAndFirstArg(Opcode::kLikeSelect, src_bat, visible_epoch);
  PoolEntry* best = nullptr;
  for (PoolEntry* c : cands) {
    const std::string& cp = c->args[1].scalar().AsStr();
    if (cp == pattern) continue;  // exact match handles this
    bool covers = false;
    if (cp == "%") {
      covers = true;
    } else {
      std::string literal;
      if (IsContainsPattern(cp, &literal)) {
        for (const std::string& seg : segments) {
          if (seg.find(literal) != std::string::npos) {
            covers = true;
            break;
          }
        }
      }
    }
    if (!covers) continue;
    if (best == nullptr || c->result_rows < best->result_rows) best = c;
  }
  if (best == nullptr) return std::nullopt;
  auto r = engine::LikeSelect(best->results[0].bat(), pattern);
  if (!r.ok()) return std::nullopt;
  SubsumeOutcome out;
  out.results.emplace_back(std::move(r).value());
  out.sources.push_back(best);
  return out;
}

std::optional<SubsumeOutcome> SubsumptionEngine::TrySemijoin(
    const std::vector<MalValue>& args, uint64_t visible_epoch) {
  if (!args[0].is_bat() || !args[1].is_bat()) return std::nullopt;
  uint64_t src_bat = args[0].bat()->id();
  uint64_t w_bat = args[1].bat()->id();

  std::vector<PoolEntry*> cands =
      pool_->FindByOpAndFirstArg(Opcode::kSemijoin, src_bat, visible_epoch);
  PoolEntry* best = nullptr;
  for (PoolEntry* c : cands) {
    if (!c->args[1].is_bat()) continue;
    uint64_t v_bat = c->args[1].bat()->id();
    if (v_bat == w_bat) continue;  // exact match handles this
    if (!pool_->IsSubsetOf(w_bat, v_bat)) continue;
    if (best == nullptr || c->result_rows < best->result_rows) best = c;
  }
  if (best == nullptr) return std::nullopt;
  auto r = engine::Semijoin(best->results[0].bat(), args[1].bat());
  if (!r.ok()) return std::nullopt;
  SubsumeOutcome out;
  out.results.emplace_back(std::move(r).value());
  out.sources.push_back(best);
  return out;
}

}  // namespace recycledb
