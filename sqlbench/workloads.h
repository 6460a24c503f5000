// Seeded statement generation for the SQL serving benchmark. Everything the
// program under test receives is SQL text produced here before timing
// starts; the same seed always yields the same texts and streams.
#ifndef SQLBENCH_WORKLOADS_H_
#define SQLBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace sqlbench {

/// The read side of a workload: the distinct statement texts and, for each
/// closed-loop session, the order in which it submits them (indices into
/// `texts`).
struct ReadStatements {
  std::vector<std::string> texts;
  std::vector<std::vector<uint32_t>> streams;
  /// Texts each run executes once during set-up (plan compile, first pool
  /// fill), before the timed window.
  std::vector<uint32_t> warmup;
  /// Texts whose answers are compared against the reference service: all
  /// of them for the dashboards, a seeded sample for the ad-hoc stream.
  std::vector<bool> checked;
  /// True when a session that runs past the end of its stream may wrap
  /// around without changing the workload (repeated texts are the point).
  bool may_wrap = true;
};

/// A few fingerprints (Q1/Q6-style aggregates, an FK join count, an order
/// priority histogram), each instantiated with three literal values drawn
/// per statement from a Zipf distribution.
ReadStatements DashboardReads(uint64_t seed, int sessions);

/// Fresh day-granular literals on range, conjunctive and LIKE predicates,
/// FK joins and GROUP BY over lineitem and orders: nearly every text is
/// distinct.
ReadStatements AdhocReads(uint64_t seed, int sessions);

/// Dashboard-style reads over orders (which the writer changes) and
/// lineitem (which it does not).
ReadStatements MixedReads(uint64_t seed, int sessions);

/// Orders rows per writer INSERT.
constexpr int kWriterRowsPerInsert = 4;

/// The update_mix writer's statement sequence: autocommit INSERT batches of
/// fresh orders (keys from `key_base` up), with an UPDATE of the writer's
/// own rows at position 9 and a DELETE of all of them at position 19 of
/// every block of 20.
std::vector<std::string> WriterStatements(uint64_t seed, uint64_t key_base,
                                          size_t n);

/// The same block shape over supplier, a table no read workload touches:
/// the commit probe of the read-only workloads. `n` a multiple of 20 ends
/// with the DELETE, which leaves the table as loaded.
std::vector<std::string> ProbeStatements(uint64_t seed, uint64_t key_base,
                                         size_t n);

/// One INSERT batch of the writer's shape (the insert-only commit a mixed
/// run ends with).
std::string WriterInsert(uint64_t seed, uint64_t first_key);

}  // namespace sqlbench

#endif  // SQLBENCH_WORKLOADS_H_
