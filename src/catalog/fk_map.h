#ifndef RECYCLEDB_CATALOG_FK_MAP_H_
#define RECYCLEDB_CATALOG_FK_MAP_H_

#include <cstddef>
#include <vector>

#include "bat/column.h"

namespace recycledb {

/// A foreign-key join index's map: for each child row, the position of the
/// FIRST parent row whose key equals the child's key, or nil when none does.
/// Two summaries ride along so maintenance can prove that a commit leaves
/// the map unchanged without scanning it.
struct FkMap {
  ColumnPtr col;      ///< kOid, aligned with the child rows; null = no map
  size_t nils = 0;    ///< child rows without a matching parent row
  Oid refs_end = 0;   ///< every non-nil entry is below this position

  /// Wraps an existing map column, computing its summaries with one scan.
  static FkMap Of(ColumnPtr col);
};

/// One table's committed delta as an FK map sees it. `key` is the merged
/// key column: the surviving rows in their old order, then `inserts`
/// appended rows. `deletes` are the removed rows' positions in the
/// pre-commit table, ascending and unique; null means none. An untouched
/// table is just its current key column.
struct FkSideDelta {
  const Column* key = nullptr;
  const std::vector<Oid>* deletes = nullptr;
  size_t inserts = 0;
};

/// How MaintainFkMap arrived at its result.
enum class FkMapOutcome {
  kKept,      ///< the old map column itself: its content cannot have changed
  kPatched,   ///< a new column, computed by compaction and shifting alone
  kResolved,  ///< a new column in which some rows were looked up by key
};

struct FkMapUpdate {
  FkMap map;
  FkMapOutcome outcome = FkMapOutcome::kKept;
  size_t lookups = 0;  ///< child rows resolved against the parent's keys
};

/// Carries an FK map across one delta merge of its child and parent tables.
/// The result equals, column flags included, the map built from scratch by
/// key matching over the merged key columns; registering an index is the
/// degenerate call with an empty `old` and every child row inserted.
///
/// - A surviving child row whose target survives moves down by the parent
///   deletes below the target. No key is touched: survivors keep their
///   order and inserts are appended, so a first occurrence stays first.
/// - Rows whose target was deleted, nil rows when the parent gained rows,
///   and new child rows are looked up in the merged parent keys: binary
///   search when the parent key column is sorted, else one pass over the
///   parent against a hash of the wanted keys.
/// - When no row can have changed (child untouched, no parent delete below
///   `old.refs_end`, and no nil row the parent's inserts could resolve),
///   `old` is returned as is, so the map keeps its identity — as it is
///   when the child is untouched and every looked-up row lands where it
///   was.
FkMapUpdate MaintainFkMap(const FkMap& old, const FkSideDelta& parent,
                          const FkSideDelta& child);

}  // namespace recycledb

#endif  // RECYCLEDB_CATALOG_FK_MAP_H_
