// Answer comparison between the service under test and the reference
// service (recycler disabled).
#ifndef SQLBENCH_ANSWERS_H_
#define SQLBENCH_ANSWERS_H_

#include <string>

#include "interp/query_result.h"

namespace sqlbench {

/// True when `got` and `want` hold the same labelled columns and values.
/// Doubles match within a relative 1e-9 (summation order may differ between
/// a recycled and a recomputed aggregate). Rows of multi-row results are
/// compared as a set, since none of the benchmark's statements has an ORDER
/// BY. On mismatch `why` says where.
bool SameAnswer(const recycledb::QueryResult& got,
                const recycledb::QueryResult& want, std::string* why);

}  // namespace sqlbench

#endif  // SQLBENCH_ANSWERS_H_
