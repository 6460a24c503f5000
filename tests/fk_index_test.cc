// Foreign-key join index maintenance: MaintainFkMap, as CommitWrite,
// OverlaySnapshot and RegisterFkIndex drive it, must reproduce byte for
// byte the map a from-scratch key match builds — and must leave an index
// whose map cannot change exactly where it was.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/fk_map.h"
#include "obs/metrics.h"
#include "server/query_service.h"
#include "sql_test_util.h"
#include "tpch/tpch.h"
#include "util/rng.h"

namespace recycledb {
namespace {

/// The oracle: every child row maps to the FIRST parent position holding
/// its key, or nil — built from scratch over the whole parent.
ColumnPtr BuildFkMap(const Column& child_key, const Column& parent_key) {
  const auto& cvals = child_key.Data<Oid>();
  const auto& pvals = parent_key.Data<Oid>();
  std::unordered_map<Oid, Oid> ppos;
  ppos.reserve(pvals.size());
  for (size_t j = 0; j < pvals.size(); ++j) ppos.emplace(pvals[j], j);
  std::vector<Oid> map(cvals.size());
  for (size_t i = 0; i < cvals.size(); ++i) {
    auto it = ppos.find(cvals[i]);
    map[i] = it == ppos.end() ? kNilOid : it->second;
  }
  auto col = Column::Make(TypeTag::kOid, std::move(map));
  col->set_persistent(true);
  return col;
}

const Column& TailOf(const Result<BatPtr>& bat) {
  EXPECT_TRUE(bat.ok()) << bat.status().ToString();
  return *bat.value()->tail().col;
}

/// `index` in `snap` equals the oracle over the snapshot's own key columns:
/// same values, same column flags.
void ExpectMatchesOracle(const CatalogSnapshot& snap, const std::string& index,
                         const std::string& child, const std::string& ckey,
                         const std::string& parent, const std::string& pkey,
                         const std::string& where) {
  const Column& got = TailOf(snap.BindIndex(index));
  ColumnPtr want = BuildFkMap(TailOf(snap.BindColumn(child, ckey)),
                              TailOf(snap.BindColumn(parent, pkey)));
  ASSERT_EQ(got.type(), TypeTag::kOid) << where;
  EXPECT_EQ(got.Data<Oid>(), want->Data<Oid>()) << where;
  EXPECT_EQ(got.sorted(), want->sorted()) << where;
  EXPECT_EQ(got.key(), want->key()) << where;
  EXPECT_EQ(got.persistent(), want->persistent()) << where;
}

// ---------------------------------------------------------------------------
// Seeded differential sequence over one parent/child pair.
// ---------------------------------------------------------------------------

/// kSorted: a large parent whose key column stays sorted (inserts append
/// ascending keys), so lookups binary-search it. kUnsorted: a small parent
/// with random, heavily duplicated keys, so lookups hash it.
enum class ParentShape { kSorted, kUnsorted };

struct DiffCase {
  ParentShape shape;
  uint64_t seed;
};

void PrintTo(const DiffCase& c, std::ostream* os) {
  *os << (c.shape == ParentShape::kSorted ? "sorted" : "unsorted")
      << " parent, seed " << c.seed;
}

class FkIndexDifferentialTest : public ::testing::TestWithParam<DiffCase> {
 protected:
  void SetUp() override {
    rng_ = Rng(GetParam().seed);
    sorted_ = GetParam().shape == ParentShape::kSorted;
    cat_.CreateTable("parent", {{"pk", TypeTag::kOid}, {"pv", TypeTag::kInt}});
    cat_.CreateTable("child", {{"fk", TypeTag::kOid}, {"cv", TypeTag::kInt}});
    std::vector<Oid> pk;
    if (sorted_) {
      // Keys 0..299, about a fifth of them twice (duplicates stay adjacent).
      for (Oid k = 0; k < 300; ++k) {
        pk.push_back(k);
        if (rng_.Bernoulli(0.2)) pk.push_back(k);
      }
      next_key_ = 300;
    } else {
      for (int i = 0; i < 40; ++i) pk.push_back(rng_.Uniform(30));
    }
    std::vector<Oid> fk;
    for (int i = 0; i < 400; ++i) fk.push_back(ChildKey());
    ASSERT_TRUE(cat_.LoadColumn<Oid>("parent", "pk", pk, sorted_).ok());
    ASSERT_TRUE(cat_.LoadColumn<int32_t>("parent", "pv",
                                         std::vector<int32_t>(pk.size(), 1))
                    .ok());
    ASSERT_TRUE(cat_.LoadColumn<Oid>("child", "fk", fk).ok());
    ASSERT_TRUE(cat_.LoadColumn<int32_t>("child", "cv",
                                         std::vector<int32_t>(fk.size(), 2))
                    .ok());
    ASSERT_TRUE(
        cat_.RegisterFkIndex("child_parent", "child", "fk", "parent", "pk")
            .ok());
    cat_.AttachMetrics(&metrics_);
    Check(*cat_.Snapshot(), "registration");
  }

  /// Mostly referenced keys from the low part of the parent's key space (so
  /// the high parent rows stay unreferenced), plus orphans.
  Oid ChildKey() {
    if (sorted_) {
      // Orphans just above the keys loaded so far: later parent inserts,
      // which take ascending keys from 300, resolve them.
      return rng_.Bernoulli(0.05) ? 300 + rng_.Uniform(8) : rng_.Uniform(200);
    }
    return rng_.Uniform(36);  // keys 30..35 are orphans until inserted
  }

  Oid ParentKey() {
    if (sorted_) return next_key_++;  // ascending: the column stays sorted
    return rng_.Uniform(36);
  }

  void Check(const CatalogSnapshot& snap, const std::string& where) {
    ExpectMatchesOracle(snap, "child_parent", "child", "fk", "parent", "pk",
                        where);
  }

  static std::vector<Scalar> Row(Oid key, int32_t v) {
    return {Scalar::OidVal(key), Scalar::Int(v)};
  }

  size_t OverlayRows(const CatalogSnapshotPtr& base, const TxnWriteSet& ws,
                     const std::string& table) {
    auto ov = cat_.OverlaySnapshot(base, ws);
    EXPECT_TRUE(ov.ok());
    auto b = ov.value()->BindColumn(table, table == "parent" ? "pk" : "fk");
    return b.value()->size();
  }

  /// Queues one random statement into `ws`; `base` is its begin snapshot.
  void RandomStatement(TxnWriteSet* ws, const CatalogSnapshotPtr& base) {
    const bool parent = rng_.Bernoulli(0.5);
    const std::string table = parent ? "parent" : "child";
    const size_t rows = OverlayRows(base, *ws, table);
    const uint64_t kind = rng_.Uniform(4);
    if (kind == 0 || rows < 8) {  // INSERT 1-3 rows
      std::vector<std::vector<Scalar>> ins;
      const int64_t n = rng_.UniformRange(1, 3);
      for (int64_t i = 0; i < n; ++i)
        ins.push_back(Row(parent ? ParentKey() : ChildKey(), 3));
      ASSERT_TRUE(cat_.Append(ws, table, std::move(ins)).ok());
      return;
    }
    // Victims: either from the top tenth of the rows (above what children
    // reference, for the parent) or anywhere.
    std::vector<Oid> victims;
    const int64_t n = rng_.UniformRange(1, 3);
    const bool high = rng_.Bernoulli(0.5);
    for (int64_t i = 0; i < n; ++i) {
      victims.push_back(high ? rows - 1 - rng_.Uniform(rows / 10 + 1)
                             : rng_.Uniform(rows));
    }
    std::sort(victims.begin(), victims.end());
    victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
    ASSERT_TRUE(cat_.Delete(ws, table, victims, base.get()).ok());
    if (kind == 1) return;  // DELETE
    // UPDATE: the victims come back with a (possibly) different key.
    std::vector<std::vector<Scalar>> ins;
    for (size_t i = 0; i < victims.size(); ++i)
      ins.push_back(Row(parent ? ParentKey() : ChildKey(), 4));
    ASSERT_TRUE(cat_.Append(ws, table, std::move(ins)).ok());
  }

  Catalog cat_;
  obs::MetricsRegistry metrics_;
  Rng rng_;
  bool sorted_ = false;
  Oid next_key_ = 0;
};

TEST_P(FkIndexDifferentialTest, MaintainedMapEqualsOracle) {
  for (int step = 0; step < 120; ++step) {
    CatalogSnapshotPtr base = cat_.Snapshot();
    TxnWriteSet ws = cat_.BeginWrite();
    // A third of the commits are multi-statement transactions over both
    // tables; each statement's overlay is checked as the owner would see it.
    const int64_t statements =
        rng_.Bernoulli(0.33) ? rng_.UniformRange(2, 4) : 1;
    for (int64_t s = 0; s < statements; ++s) {
      RandomStatement(&ws, base);
      if (HasFatalFailure()) return;
      auto ov = cat_.OverlaySnapshot(base, ws);
      ASSERT_TRUE(ov.ok()) << ov.status().ToString();
      Check(*ov.value(), "overlay, step " + std::to_string(step));
    }
    ASSERT_TRUE(cat_.CommitWrite(&ws).ok());
    Check(*cat_.Snapshot(), "commit, step " + std::to_string(step));
  }
  // The sequence exercised every outcome.
  auto snap = metrics_.Snapshot();
  EXPECT_GT(snap.Find("commit_index_kept")->value, 0u);
  EXPECT_GT(snap.Find("commit_index_patched")->value, 0u);
  EXPECT_GT(snap.Find("commit_index_resolved")->value, 0u);
  EXPECT_EQ(snap.Find("commit_index_us")->hist.count, 120u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FkIndexDifferentialTest,
    ::testing::Values(DiffCase{ParentShape::kSorted, 1},
                      DiffCase{ParentShape::kSorted, 2},
                      DiffCase{ParentShape::kUnsorted, 3},
                      DiffCase{ParentShape::kUnsorted, 4}),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
      const bool sorted = info.param.shape == ParentShape::kSorted;
      return (sorted ? "Sorted" : "Unsorted") +
             std::to_string(info.param.seed);
    });

// ---------------------------------------------------------------------------
// MaintainFkMap at the function level: the cases named in its contract.
// ---------------------------------------------------------------------------

ColumnPtr OidColumn(std::vector<Oid> v, bool sorted = false) {
  auto col = Column::Make(TypeTag::kOid, std::move(v));
  col->set_sorted(sorted);
  return col;
}

TEST(MaintainFkMapTest, RegistrationIsMaintenanceFromEmpty) {
  auto parent = OidColumn({5, 7, 5, 9});  // duplicate key 5: first wins
  auto child = OidColumn({9, 5, 6, 7});   // 6 is an orphan
  FkMapUpdate u = MaintainFkMap(FkMap{}, FkSideDelta{parent.get()},
                                FkSideDelta{child.get(), nullptr, 4});
  EXPECT_EQ(u.outcome, FkMapOutcome::kResolved);
  EXPECT_EQ(u.map.col->Data<Oid>(), (std::vector<Oid>{3, 0, kNilOid, 1}));
  EXPECT_EQ(u.map.nils, 1u);
  EXPECT_EQ(u.map.refs_end, 4u);
}

TEST(MaintainFkMapTest, KeepsTheColumnWhenNothingCanChange) {
  auto parent = OidColumn({1, 2, 3, 4}, /*sorted=*/true);
  auto child = OidColumn({1, 2, 1});
  FkMap map = MaintainFkMap(FkMap{}, FkSideDelta{parent.get()},
                            FkSideDelta{child.get(), nullptr, 3})
                  .map;
  // Insert-only parent commit without nil rows.
  auto grown = OidColumn({1, 2, 3, 4, 1}, true);
  FkMapUpdate u = MaintainFkMap(map, FkSideDelta{grown.get(), nullptr, 1},
                                FkSideDelta{child.get()});
  EXPECT_EQ(u.outcome, FkMapOutcome::kKept);
  EXPECT_EQ(u.map.col, map.col);
  // Parent deletes above every referenced position (refs_end is 2).
  const std::vector<Oid> high = {2, 3};
  auto shrunk = OidColumn({1, 2}, true);
  u = MaintainFkMap(map, FkSideDelta{shrunk.get(), &high, 0},
                    FkSideDelta{child.get()});
  EXPECT_EQ(u.outcome, FkMapOutcome::kKept);
  EXPECT_EQ(u.map.col, map.col);
}

TEST(MaintainFkMapTest, ShiftsSurvivorsAndResolvesDeletedTargets) {
  auto parent = OidColumn({10, 20, 30, 20});
  auto child = OidColumn({30, 20, 10});
  FkMap map = MaintainFkMap(FkMap{}, FkSideDelta{parent.get()},
                            FkSideDelta{child.get(), nullptr, 3})
                  .map;
  ASSERT_EQ(map.col->Data<Oid>(), (std::vector<Oid>{2, 1, 0}));
  // Delete parent row 0 (key 10) and row 1 (the first 20): the 30 shifts
  // down by two, the 20 falls back on its duplicate, the 10 goes nil.
  const std::vector<Oid> gone = {0, 1};
  auto merged = OidColumn({30, 20});
  FkMapUpdate u = MaintainFkMap(map, FkSideDelta{merged.get(), &gone, 0},
                                FkSideDelta{child.get()});
  EXPECT_EQ(u.outcome, FkMapOutcome::kResolved);
  EXPECT_EQ(u.lookups, 2u);
  EXPECT_EQ(u.map.col->Data<Oid>(), (std::vector<Oid>{0, 1, kNilOid}));
  // A child delete alone compacts without a lookup.
  const std::vector<Oid> first_child = {0};
  auto fewer = OidColumn({20, 10});
  u = MaintainFkMap(map, FkSideDelta{parent.get()},
                    FkSideDelta{fewer.get(), &first_child, 0});
  EXPECT_EQ(u.outcome, FkMapOutcome::kPatched);
  EXPECT_EQ(u.map.col->Data<Oid>(), (std::vector<Oid>{1, 0}));
}

// ---------------------------------------------------------------------------
// Identity across commits on TPC-H, and the commit phase metrics.
// ---------------------------------------------------------------------------

struct TpchIndex {
  const char* name;
  const char* child;
  const char* ckey;
  const char* parent;
  const char* pkey;
};

constexpr TpchIndex kTpchIndices[] = {
    {"li_orders", "lineitem", "l_orderkey", "orders", "o_orderkey"},
    {"li_part", "lineitem", "l_partkey", "part", "p_partkey"},
    {"li_supp", "lineitem", "l_suppkey", "supplier", "s_suppkey"},
    {"ord_cust", "orders", "o_custkey", "customer", "c_custkey"},
    {"ps_part", "partsupp", "ps_partkey", "part", "p_partkey"},
    {"ps_supp", "partsupp", "ps_suppkey", "supplier", "s_suppkey"},
    {"cust_nation", "customer", "c_nationkey", "nation", "n_nationkey"},
    {"supp_nation", "supplier", "s_nationkey", "nation", "n_nationkey"},
    {"nation_region", "nation", "n_regionkey", "region", "r_regionkey"},
};

void ExpectTpchIndicesMatchOracle(const Catalog& cat,
                                  const std::string& where) {
  CatalogSnapshotPtr snap = cat.Snapshot();
  for (const TpchIndex& x : kTpchIndices) {
    ExpectMatchesOracle(*snap, x.name, x.child, x.ckey, x.parent, x.pkey,
                        where + ", " + x.name);
  }
}

size_t Reported(const std::vector<ColumnId>& cols, ColumnId id) {
  return static_cast<size_t>(std::count(cols.begin(), cols.end(), id));
}

TEST(FkIndexIdentityTest, SupplierInsertsKeepParentSideIndices) {
  Catalog cat;
  tpch::TpchConfig cfg;
  cfg.scale_factor = 0.002;
  ASSERT_TRUE(tpch::LoadTpch(&cat, cfg).ok());
  ExpectTpchIndicesMatchOracle(cat, "registration");
  obs::MetricsRegistry metrics;
  cat.AttachMetrics(&metrics);
  std::vector<ColumnId> reported;
  cat.SetUpdateListener(
      [&reported](const std::vector<ColumnId>& cols, Catalog::UpdateKind) {
        reported = cols;
      });
  const ColumnId li_supp = cat.GetIndexId("li_supp").value();
  const ColumnId ps_supp = cat.GetIndexId("ps_supp").value();
  const ColumnId supp_nation = cat.GetIndexId("supp_nation").value();
  const BatPtr li_before = cat.Snapshot()->BindIndex("li_supp").value();
  const BatPtr ps_before = cat.Snapshot()->BindIndex("ps_supp").value();
  Oid next_key = cat.FindTable("supplier")->num_rows();

  constexpr int kCommits = 3;
  for (int c = 0; c < kCommits; ++c) {
    TxnWriteSet ws = cat.BeginWrite();
    std::vector<std::vector<Scalar>> rows;
    for (int i = 0; i < 4; ++i) {
      rows.push_back({Scalar::OidVal(next_key++), Scalar::Str("Supplier#new"),
                      Scalar::OidVal(static_cast<Oid>(c)), Scalar::Dbl(1.5),
                      Scalar::Str("fresh")});
    }
    ASSERT_TRUE(cat.Append(&ws, "supplier", std::move(rows)).ok());
    ASSERT_TRUE(cat.CommitWrite(&ws).ok());
    const std::string where = "supplier commit " + std::to_string(c);
    EXPECT_EQ(cat.Snapshot()->BindIndex("li_supp").value().get(),
              li_before.get())
        << where;
    EXPECT_EQ(cat.Snapshot()->BindIndex("ps_supp").value().get(),
              ps_before.get())
        << where;
    EXPECT_EQ(Reported(reported, li_supp), 0u) << where;
    EXPECT_EQ(Reported(reported, ps_supp), 0u) << where;
    // supplier is supp_nation's child: its four new rows were looked up.
    EXPECT_EQ(Reported(reported, supp_nation), 1u) << where;
    ExpectTpchIndicesMatchOracle(cat, where);
  }

  auto snap = metrics.Snapshot();
  EXPECT_EQ(snap.Find("commit_index_kept")->value, 2u * kCommits);
  EXPECT_EQ(snap.Find("commit_index_patched")->value, 0u);
  EXPECT_EQ(snap.Find("commit_index_resolved")->value, 1u * kCommits);
  for (const char* h : {"commit_merge_us", "commit_index_us",
                        "commit_listener_us", "commit_publish_us"}) {
    EXPECT_EQ(snap.Find(h)->hist.count, static_cast<uint64_t>(kCommits)) << h;
  }
  cat.SetUpdateListener(nullptr);
}

TEST(FkIndexIdentityTest, ServiceExportsCommitPhases) {
  auto cat = std::make_unique<Catalog>();
  tpch::TpchConfig cfg;
  cfg.scale_factor = 0.002;
  ASSERT_TRUE(tpch::LoadTpch(cat.get(), cfg).ok());
  QueryService svc(std::move(cat), ServiceConfig{});
  Session session;
  auto r = testutil::RunSql(
      &svc, &session,
      "insert into region values (5, 'NOWHERE')");  // autocommits
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto snap = svc.metrics().Snapshot();
  for (const char* h : {"commit_merge_us", "commit_index_us",
                        "commit_listener_us", "commit_publish_us"}) {
    ASSERT_NE(snap.Find(h), nullptr) << h;
    EXPECT_EQ(snap.Find(h)->hist.count, 1u) << h;
  }
  // region is nation_region's parent; nation has no nil rows: kept.
  EXPECT_EQ(snap.Find("commit_index_kept")->value, 1u);
}

}  // namespace
}  // namespace recycledb
