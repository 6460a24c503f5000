#include "workloads.h"

#include <set>

#include "util/date.h"
#include "util/rng.h"
#include "util/str.h"

namespace sqlbench {

using recycledb::DateFromYmd;
using recycledb::DateT;
using recycledb::DateToString;
using recycledb::Rng;
using recycledb::StrFormat;

namespace {

/// Statements per session in the dashboard streams: more than a session
/// issues in one timed window, so wrapping is rare (and harmless there).
constexpr size_t kDashboardStreamLen = size_t{1} << 20;
/// Distinct ad-hoc statements per session: more than a session completes in
/// a 60 s window, so the ad-hoc stream never repeats a text.
constexpr size_t kAdhocStreamLen = 12000;
/// One ad-hoc text in this many is answer-checked.
constexpr uint64_t kAdhocCheckEvery = 16;
constexpr int kValuesPerFingerprint = 3;

std::string Date(DateT d) { return "date '" + DateToString(d) + "'"; }

/// Draws a rank in [0, n) with probability proportional to 1/(rank+1).
uint32_t Zipf(Rng* rng, uint32_t n) {
  double total = 0;
  for (uint32_t k = 1; k <= n; ++k) total += 1.0 / k;
  double u = rng->NextDouble() * total;
  for (uint32_t k = 1; k <= n; ++k) {
    u -= 1.0 / k;
    if (u < 0) return k - 1;
  }
  return n - 1;
}

/// Generates `kValuesPerFingerprint` distinct texts from `make`.
template <typename Make>
std::vector<std::string> DistinctTexts(Rng* rng, Make make) {
  std::set<std::string> seen;
  std::vector<std::string> out;
  while (out.size() < kValuesPerFingerprint) {
    std::string t = make(rng);
    if (seen.insert(t).second) out.push_back(std::move(t));
  }
  return out;
}

// --- dashboard fingerprints --------------------------------------------------

std::string PricingSummary(Rng* rng) {  // Q1-style grouped aggregate
  const DateT cut = DateFromYmd(1998, 12, 1) -
                    static_cast<DateT>(rng->UniformRange(60, 120));
  return "select l_returnflag, l_linestatus, sum(l_quantity), "
         "sum(l_extendedprice), avg(l_discount), count(*) from lineitem "
         "where l_shipdate <= " +
         Date(cut) + " group by l_returnflag, l_linestatus";
}

std::string RevenueChange(Rng* rng) {  // Q6-style conjunctive aggregate
  const int y = static_cast<int>(rng->UniformRange(1993, 1997));
  const int d = static_cast<int>(rng->UniformRange(2, 9));
  return StrFormat(
      "select sum(l_extendedprice * l_discount) from lineitem where "
      "l_shipdate >= date '%d-01-01' and l_shipdate < date '%d-01-01' and "
      "l_discount between %.2f and %.2f and l_quantity < %d",
      y, y + 1, (d - 1) / 100.0, (d + 1) / 100.0,
      static_cast<int>(rng->UniformRange(24, 25)));
}

std::string OrderLineCount(Rng* rng) {  // FK join count
  const int y = static_cast<int>(rng->UniformRange(1992, 1997));
  const int m = 1 + 2 * static_cast<int>(rng->Uniform(4));
  return StrFormat(
      "select count(*) from lineitem inner join orders on l_orderkey = "
      "o_orderkey where o_orderdate >= date '%d-%02d-01' and o_orderdate < "
      "date '%d-%02d-01'",
      y, m, y, m + 5);
}

std::string PriorityHistogram(Rng* rng) {
  const int y = static_cast<int>(rng->UniformRange(1992, 1997));
  const int q = static_cast<int>(rng->Uniform(4));
  return StrFormat(
      "select o_orderpriority, count(*) from orders where o_orderdate "
      "between date '%d-%02d-01' and date '%d-%02d-28' group by "
      "o_orderpriority",
      y, 1 + 3 * q, y, 3 + 3 * q);
}

std::string OrderValue(Rng* rng) {  // select over one orders column
  const DateT from = DateFromYmd(1992, 1, 1) +
                     static_cast<DateT>(rng->Uniform(6 * 365));
  return "select count(*), sum(o_totalprice) from orders where "
         "o_orderdate between " + Date(from) + " and " + Date(from + 180);
}

/// Builds the Zipf-over-values, uniform-over-fingerprints dashboard set.
template <typename... Make>
ReadStatements Dashboard(uint64_t seed, int sessions, Make... makers) {
  Rng rng(seed);
  ReadStatements out;
  std::vector<std::vector<std::string>> groups = {DistinctTexts(&rng, makers)...};
  for (const auto& g : groups)
    for (const auto& t : g) out.texts.push_back(t);
  const uint32_t n_fp = static_cast<uint32_t>(groups.size());
  for (uint32_t i = 0; i < out.texts.size(); ++i) out.warmup.push_back(i);
  out.checked.assign(out.texts.size(), true);
  for (int s = 0; s < sessions; ++s) {
    Rng srng(seed * 1000003 + static_cast<uint64_t>(s) + 1);
    std::vector<uint32_t> stream(kDashboardStreamLen);
    for (auto& idx : stream) {
      const uint32_t fp = static_cast<uint32_t>(srng.Uniform(n_fp));
      idx = fp * kValuesPerFingerprint + Zipf(&srng, kValuesPerFingerprint);
    }
    out.streams.push_back(std::move(stream));
  }
  return out;
}

// --- ad-hoc templates --------------------------------------------------------

const char* kInstructions[] = {"DELIVER%", "COLLECT%", "NONE", "TAKE%"};
const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                             "4-NOT SPECIFIED", "5-LOW"};
const char* kCommentWords[] = {"%carefully%", "%quickly%", "%deposits%",
                               "%packages%", "%ideas%", "%foxes%"};

constexpr int kAdhocTemplates = 7;

/// One ad-hoc text of template `tmpl`, or of a random one when it is -1.
std::string AdhocText(Rng* rng, int tmpl = -1) {
  // Day-granular window start over the populated date range, and a fresh
  // window length: nearly every text is new.
  const DateT from = DateFromYmd(1992, 1, 1) +
                     static_cast<DateT>(rng->Uniform(6 * 365 + 180));
  const DateT to = from + static_cast<DateT>(rng->UniformRange(7, 90));
  const int qty = static_cast<int>(rng->UniformRange(10, 45));
  if (tmpl < 0) tmpl = static_cast<int>(rng->Uniform(kAdhocTemplates));
  switch (tmpl) {
    case 0:
      return "select count(*), sum(l_extendedprice) from lineitem where "
             "l_shipdate >= " + Date(from) + " and l_shipdate < " + Date(to);
    case 1: {
      const int d = static_cast<int>(rng->UniformRange(2, 9));
      return StrFormat(
          "select sum(l_extendedprice * l_discount) from lineitem where "
          "l_shipdate >= %s and l_shipdate < %s and l_discount between "
          "%.2f and %.2f and l_quantity < %d",
          Date(from).c_str(), Date(to).c_str(), (d - 1) / 100.0,
          (d + 1) / 100.0, qty);
    }
    case 2:
      return StrFormat(
          "select count(*), sum(l_extendedprice) from lineitem where "
          "l_shipinstruct like '%s' and l_shipdate between %s and %s",
          kInstructions[rng->Uniform(4)], Date(from).c_str(), Date(to).c_str());
    case 3:
      return StrFormat(
          "select count(*) from orders where o_comment like '%s' and "
          "o_orderdate >= %s and o_orderdate < %s",
          kCommentWords[rng->Uniform(6)], Date(from).c_str(), Date(to).c_str());
    case 4:
      return StrFormat(
          "select count(*), sum(o_totalprice) from lineitem inner join "
          "orders on l_orderkey = o_orderkey where o_orderdate >= %s and "
          "o_orderdate < %s and l_quantity < %d",
          Date(from).c_str(), Date(to).c_str(), qty);
    case 5:
      return "select l_returnflag, l_linestatus, sum(l_quantity), count(*) "
             "from lineitem where l_shipdate >= " + Date(from) +
             " and l_shipdate < " + Date(to) +
             " group by l_returnflag, l_linestatus";
    default:
      return "select o_orderpriority, count(*), sum(o_totalprice) from "
             "orders where o_orderdate >= " + Date(from) +
             " and o_orderdate < " + Date(to) + " group by o_orderpriority";
  }
}

std::string OrderRow(Rng* rng, uint64_t key) {
  const DateT d = DateFromYmd(1992, 1, 1) +
                  static_cast<DateT>(rng->Uniform(6 * 365 + 200));
  return StrFormat("(%llu, %llu, 'O', %.2f, %s, '%s', 'sqlbench row')",
                   static_cast<unsigned long long>(key),
                   static_cast<unsigned long long>(1 + rng->Uniform(1000)),
                   1000.0 + static_cast<double>(rng->Uniform(400000)) / 100.0,
                   Date(d).c_str(), kPriorities[rng->Uniform(5)]);
}

std::string SupplierRow(Rng* rng, uint64_t key) {
  return StrFormat("(%llu, 'Supplier#sqlbench', %llu, %.2f, 'sqlbench row')",
                   static_cast<unsigned long long>(key),
                   static_cast<unsigned long long>(rng->Uniform(25)),
                   static_cast<double>(rng->Uniform(1000000)) / 100.0);
}

/// A table the write statements target: its key column, a numeric column
/// the UPDATE bumps, and a row generator.
struct WriteTarget {
  const char* table;
  const char* key;
  const char* value;
  std::string (*row)(Rng*, uint64_t key);
};

const WriteTarget kOrders = {"orders", "o_orderkey", "o_totalprice", OrderRow};
const WriteTarget kSupplier = {"supplier", "s_suppkey", "s_acctbal",
                               SupplierRow};

std::string InsertBatch(const WriteTarget& t, Rng* rng, uint64_t* next_key) {
  std::string stmt = StrFormat("insert into %s values ", t.table);
  for (int i = 0; i < kWriterRowsPerInsert; ++i) {
    if (i != 0) stmt += ", ";
    stmt += t.row(rng, (*next_key)++);
  }
  return stmt;
}

/// Blocks of 20: INSERT batches with an UPDATE of the rows written so far
/// at position 9 and a DELETE of all of them at position 19.
std::vector<std::string> WriteBlocks(const WriteTarget& t, uint64_t seed,
                                     uint64_t key_base, size_t n) {
  Rng rng(seed ^ 0x777269746572ULL);
  std::vector<std::string> out;
  out.reserve(n);
  uint64_t next_key = key_base;
  const unsigned long long base = key_base;
  for (size_t i = 0; i < n; ++i) {
    const size_t pos = i % 20;
    if (pos == 19) {
      out.push_back(
          StrFormat("delete from %s where %s >= %llu", t.table, t.key, base));
    } else if (pos == 9) {
      out.push_back(StrFormat("update %s set %s = %s + 1 where %s >= %llu",
                              t.table, t.value, t.value, t.key, base));
    } else {
      out.push_back(InsertBatch(t, &rng, &next_key));
    }
  }
  return out;
}

}  // namespace

ReadStatements DashboardReads(uint64_t seed, int sessions) {
  return Dashboard(seed, sessions, PricingSummary, RevenueChange,
                   OrderLineCount, PriorityHistogram);
}

ReadStatements MixedReads(uint64_t seed, int sessions) {
  return Dashboard(seed ^ 0x6d69786564ULL, sessions, OrderValue,
                   PriorityHistogram, RevenueChange, PricingSummary);
}

ReadStatements AdhocReads(uint64_t seed, int sessions) {
  Rng rng(seed ^ 0x6164686f63ULL);
  ReadStatements out;
  out.may_wrap = false;
  std::set<std::string> seen;
  for (int s = 0; s < sessions; ++s) {
    std::vector<uint32_t> stream;
    stream.reserve(kAdhocStreamLen);
    while (stream.size() < kAdhocStreamLen) {
      std::string t = AdhocText(&rng);
      if (!seen.insert(t).second) continue;
      stream.push_back(static_cast<uint32_t>(out.texts.size()));
      out.texts.push_back(std::move(t));
    }
    out.streams.push_back(std::move(stream));
  }
  // Set-up runs every template four times, from texts outside the streams.
  for (int tmpl = 0; tmpl < kAdhocTemplates; ++tmpl) {
    for (int n = 0; n < 4;) {
      std::string t = AdhocText(&rng, tmpl);
      if (!seen.insert(t).second) continue;
      out.warmup.push_back(static_cast<uint32_t>(out.texts.size()));
      out.texts.push_back(std::move(t));
      ++n;
    }
  }
  out.checked.resize(out.texts.size());
  for (size_t i = 0; i < out.texts.size(); ++i)
    out.checked[i] = rng.Uniform(kAdhocCheckEvery) == 0;
  return out;
}

std::vector<std::string> WriterStatements(uint64_t seed, uint64_t key_base,
                                          size_t n) {
  return WriteBlocks(kOrders, seed, key_base, n);
}

std::vector<std::string> ProbeStatements(uint64_t seed, uint64_t key_base,
                                         size_t n) {
  return WriteBlocks(kSupplier, seed, key_base, n);
}

std::string WriterInsert(uint64_t seed, uint64_t first_key) {
  Rng rng(seed ^ 0x66696e616cULL);
  return InsertBatch(kOrders, &rng, &first_key);
}

}  // namespace sqlbench
