// Per-statement spans of the traced run.
#ifndef SQLBENCH_SPANS_H_
#define SQLBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace sqlbench {

/// The spans of one traced statement, in microseconds; all share the
/// statement's id. `outside` is the benchmark's own span around the public
/// call (QueryService::Submit to result, or net::Client::Query send to
/// receive). parse, plan (with its cache_probe and compile or bind_params
/// children), queue and execute are the service's spans from the
/// statement's QueryTrace. encode and decode are the benchmark's timings of
/// EncodeResultSet / DecodeResultSet on the statement's own result (wire
/// statements only).
struct StmtSpans {
  uint32_t id = 0;
  uint32_t text = 0;
  float outside = 0;
  float parse = 0, plan = 0, probe = 0, compile = 0, bind = 0;
  float queue = 0, exec = 0;
  float encode = 0, decode = 0;
  // Recycler decision records of the statement (QueryTrace::totals()).
  uint32_t exact = 0, subsumed = 0, miss = 0, admit = 0, decline = 0;
  uint32_t evict = 0;

  /// Time covered by service spans.
  float ServiceSpans() const { return parse + plan + queue + exec; }
  /// Self time of the plan span (outside its probe/compile/bind children).
  float PlanSelf() const { return plan - probe - compile - bind; }
  /// outside minus every span inside it: what no layer accounts for.
  float Residual() const { return outside - ServiceSpans() - encode - decode; }
};

/// Fills the service spans and decision totals from an in-process trace.
void FromTrace(const recycledb::obs::QueryTrace& trace, StmtSpans* s);

/// Same, from the trace text a wire RESULT carries (QueryTrace::ToString).
/// False when the text does not hold the expected spans.
bool FromTraceText(const std::string& text, StmtSpans* s);

/// Writes one CSV line per statement (header names each span as
/// parent.child); false on an I/O error.
bool WriteSpans(const std::string& path, const std::vector<StmtSpans>& spans);

}  // namespace sqlbench

#endif  // SQLBENCH_SPANS_H_
