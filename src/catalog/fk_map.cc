#include "catalog/fk_map.h"

#include <algorithm>
#include <unordered_map>

#include "util/check.h"

namespace recycledb {

namespace {

/// Binary search wins while lookups number under 1/kFewLookups of the
/// parent's rows.
constexpr size_t kFewLookups = 16;

/// Fills map[p], for every p in `pending` and every p from `new_from` on,
/// with the first position of child_keys[p] among the parent keys, or nil.
/// A few lookups binary-search a sorted parent; otherwise one hash over the
/// parent serves them all, which is what registration (every child row
/// new) needs: over TPC-H's lineitem, 300k binary searches cost several
/// times one hash build and probe.
void Resolve(const Column& parent_key, const Oid* child_keys,
             const std::vector<size_t>& pending, size_t new_from,
             std::vector<Oid>* map) {
  const auto& pk = parent_key.Data<Oid>();
  auto fill = [&](auto&& find) {
    for (size_t p : pending) (*map)[p] = find(child_keys[p]);
    for (size_t p = new_from; p < map->size(); ++p)
      (*map)[p] = find(child_keys[p]);
  };
  const size_t lookups = pending.size() + (map->size() - new_from);
  if (parent_key.sorted() && lookups * kFewLookups < pk.size()) {
    fill([&pk](Oid key) {
      auto lb = std::lower_bound(pk.begin(), pk.end(), key);
      return lb != pk.end() && *lb == key ? static_cast<Oid>(lb - pk.begin())
                                          : kNilOid;
    });
    return;
  }
  std::unordered_map<Oid, Oid> first;  // emplace keeps the first position
  first.reserve(pk.size());
  for (size_t j = 0; j < pk.size(); ++j)
    first.emplace(pk[j], static_cast<Oid>(j));
  fill([&first](Oid key) {
    auto it = first.find(key);
    return it == first.end() ? kNilOid : it->second;
  });
}

}  // namespace

FkMap FkMap::Of(ColumnPtr col) {
  FkMap m;
  for (Oid v : col->Data<Oid>()) {
    if (v == kNilOid)
      ++m.nils;
    else
      m.refs_end = std::max(m.refs_end, v + 1);
  }
  m.col = std::move(col);
  return m;
}

FkMapUpdate MaintainFkMap(const FkMap& old, const FkSideDelta& parent,
                          const FkSideDelta& child) {
  static const std::vector<Oid> kNone;
  const std::vector<Oid>& pdel = parent.deletes ? *parent.deletes : kNone;
  const std::vector<Oid>& cdel = child.deletes ? *child.deletes : kNone;
  const size_t old_rows = old.col ? old.col->size() : 0;
  RDB_CHECK(cdel.size() <= old_rows);
  const size_t rows = old_rows - cdel.size() + child.inserts;
  RDB_CHECK(child.key->size() == rows);

  // Parent deletes at or above refs_end move no referenced position, and a
  // nil row can only resolve against a parent row that is new.
  const auto pdel_refs =
      std::lower_bound(pdel.begin(), pdel.end(), old.refs_end);
  const bool shift = pdel_refs != pdel.begin();
  const bool retry_nils = old.nils > 0 && parent.inserts > 0;
  const bool child_same = old.col && cdel.empty() && child.inserts == 0;
  if (child_same && !shift && !retry_nils) return {old};

  const Oid* src = old_rows > 0 ? old.col->Data<Oid>().data() : nullptr;
  std::vector<Oid> map(rows);
  std::vector<size_t> pending;  // surviving rows to look up by key
  size_t out = 0;
  // Surviving old rows come in runs between consecutive child deletes.
  auto carry = [&](size_t from, size_t to) {
    if (!shift && !retry_nils) {
      std::copy(src + from, src + to, map.begin() + out);
      out += to - from;
      return;
    }
    for (size_t i = from; i < to; ++i, ++out) {
      const Oid t = src[i];
      if (t == kNilOid) {
        map[out] = kNilOid;
        if (retry_nils) pending.push_back(out);
        continue;
      }
      auto lb = std::lower_bound(pdel.begin(), pdel_refs, t);
      if (lb != pdel_refs && *lb == t) {
        pending.push_back(out);  // target deleted: a duplicate may survive
      } else {
        map[out] = t - static_cast<Oid>(lb - pdel.begin());
      }
    }
  };
  size_t from = 0;
  for (Oid d : cdel) {
    carry(from, d);
    from = d + 1;
  }
  carry(from, old_rows);

  // The new child rows, positions out..rows, are looked up too.
  const size_t lookups = pending.size() + (rows - out);
  if (lookups > 0)
    Resolve(*parent.key, child.key->Data<Oid>().data(), pending, out, &map);
  // Every looked-up row may have landed where it was (orphans that the
  // parent's inserts did not match, say): then the map is unchanged.
  if (child_same && std::equal(map.begin(), map.end(), src)) return {old};

  FkMapUpdate u;
  u.outcome = lookups == 0 ? FkMapOutcome::kPatched : FkMapOutcome::kResolved;
  u.lookups = lookups;
  auto col = Column::Make(TypeTag::kOid, std::move(map));
  col->set_persistent(true);
  u.map = FkMap::Of(std::move(col));
  return u;
}

}  // namespace recycledb
