#include "answers.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/str.h"

namespace sqlbench {

using recycledb::MalValue;
using recycledb::QueryResult;
using recycledb::Scalar;
using recycledb::StrFormat;
using recycledb::TypeTag;

namespace {

using Row = std::vector<Scalar>;

bool SameScalar(const Scalar& a, const Scalar& b) {
  if (a.tag() == TypeTag::kDbl && b.tag() == TypeTag::kDbl) {
    const double x = a.AsDbl(), y = b.AsDbl();
    if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
    return std::abs(x - y) <= 1e-9 * std::max({std::abs(x), std::abs(y), 1.0});
  }
  return a == b;
}

/// Sort key of a row: its non-double cells (group keys), then its doubles.
bool RowLess(const Row& a, const Row& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].tag() == TypeTag::kDbl) continue;
    const std::string x = a[i].ToString(), y = b[i].ToString();
    if (x != y) return x < y;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].tag() != TypeTag::kDbl) continue;
    if (a[i].AsDbl() != b[i].AsDbl()) return a[i].AsDbl() < b[i].AsDbl();
  }
  return false;
}

/// The result as rows when every value is a column of one common length;
/// false for a mix of scalars and columns.
bool AsRows(const QueryResult& r, std::vector<Row>* rows) {
  size_t n = 0;
  for (size_t c = 0; c < r.values.size(); ++c) {
    const MalValue& v = r.values[c].second;
    if (!v.is_bat()) return false;
    if (c == 0) n = v.bat()->size();
    if (v.bat()->size() != n) return false;
  }
  rows->assign(n, Row());
  for (const auto& [label, v] : r.values)
    for (size_t i = 0; i < n; ++i) (*rows)[i].push_back(v.bat()->TailAt(i));
  std::sort(rows->begin(), rows->end(), RowLess);
  return true;
}

}  // namespace

bool SameAnswer(const QueryResult& got, const QueryResult& want,
                std::string* why) {
  if (got.values.size() != want.values.size()) {
    *why = StrFormat("%zu values, want %zu", got.values.size(),
                     want.values.size());
    return false;
  }
  for (size_t c = 0; c < got.values.size(); ++c) {
    if (got.values[c].first != want.values[c].first) {
      *why = "label " + got.values[c].first + ", want " + want.values[c].first;
      return false;
    }
  }
  std::vector<Row> g, w;
  if (AsRows(got, &g) && AsRows(want, &w)) {
    if (g.size() != w.size()) {
      *why = StrFormat("%zu rows, want %zu", g.size(), w.size());
      return false;
    }
    for (size_t i = 0; i < g.size(); ++i) {
      for (size_t c = 0; c < g[i].size(); ++c) {
        if (!SameScalar(g[i][c], w[i][c])) {
          *why = StrFormat("row %zu column %s: %s, want %s", i,
                           got.values[c].first.c_str(),
                           g[i][c].ToString().c_str(),
                           w[i][c].ToString().c_str());
          return false;
        }
      }
    }
    return true;
  }
  for (size_t c = 0; c < got.values.size(); ++c) {
    const MalValue& a = got.values[c].second;
    const MalValue& b = want.values[c].second;
    if (a.is_bat() != b.is_bat()) {
      *why = "column " + got.values[c].first + ": scalar/column mismatch";
      return false;
    }
    bool same = true;
    if (a.is_bat()) {
      same = a.bat()->size() == b.bat()->size();
      for (size_t i = 0; same && i < a.bat()->size(); ++i)
        same = SameScalar(a.bat()->TailAt(i), b.bat()->TailAt(i));
    } else {
      same = SameScalar(a.scalar(), b.scalar());
    }
    if (!same) {
      *why = "column " + got.values[c].first + ": " + a.ToString() +
             ", want " + b.ToString();
      return false;
    }
  }
  return true;
}

}  // namespace sqlbench
