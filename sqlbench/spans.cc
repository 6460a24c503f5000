#include "spans.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace sqlbench {

using recycledb::obs::QueryTrace;

namespace {

/// Routes one named span's duration (ms) to its field.
void Assign(const std::string& name, double ms, StmtSpans* s) {
  const float us = static_cast<float>(ms * 1e3);
  if (name == "parse") s->parse = us;
  else if (name == "plan") s->plan = us;
  else if (name == "cache_probe") s->probe = us;
  else if (name == "compile") s->compile = us;
  else if (name == "bind_params") s->bind = us;
  else if (name == "queue") s->queue = us;
  else if (name == "execute") s->exec = us;
}

void AssignTree(const QueryTrace::Span& span, StmtSpans* s) {
  for (const QueryTrace::Span& c : span.children) {
    Assign(c.name, c.dur_ms, s);
    AssignTree(c, s);
  }
}

}  // namespace

void FromTrace(const QueryTrace& trace, StmtSpans* s) {
  AssignTree(trace.root(), s);
  const QueryTrace::Totals t = trace.totals();
  s->exact = static_cast<uint32_t>(t.exact_hits);
  s->subsumed = static_cast<uint32_t>(t.subsumed_hits);
  s->miss = static_cast<uint32_t>(t.misses);
  s->admit = static_cast<uint32_t>(t.admitted);
  s->decline = static_cast<uint32_t>(t.declined);
  s->evict = static_cast<uint32_t>(t.evicted);
}

bool FromTraceText(const std::string& text, StmtSpans* s) {
  // Span lines are "<indent><name> <ms> ms[  (note)]" under the header
  // line; the decision table follows, closed by a totals line.
  bool saw_exec = false;
  size_t pos = text.find('\n');
  while (pos != std::string::npos && pos + 1 < text.size()) {
    const size_t start = pos + 1;
    pos = text.find('\n', start);
    const std::string line =
        text.substr(start, pos == std::string::npos ? std::string::npos
                                                    : pos - start);
    unsigned long long e, sub, m, a, dec, ev;
    if (std::sscanf(line.c_str(),
                    " totals: exact=%llu subsumed=%llu miss=%llu admit=%llu "
                    "decline=%llu evict=%llu",
                    &e, &sub, &m, &a, &dec, &ev) == 6) {
      s->exact = static_cast<uint32_t>(e);
      s->subsumed = static_cast<uint32_t>(sub);
      s->miss = static_cast<uint32_t>(m);
      s->admit = static_cast<uint32_t>(a);
      s->decline = static_cast<uint32_t>(dec);
      s->evict = static_cast<uint32_t>(ev);
      continue;
    }
    char name[64];
    double ms = 0;
    if (std::strncmp(line.c_str(), "recycler decisions", 18) == 0) continue;
    if (std::sscanf(line.c_str(), " %63s %lf ms", name, &ms) == 2) {
      Assign(name, ms, s);
      if (std::strcmp(name, "execute") == 0) saw_exec = true;
    }
  }
  return saw_exec;
}

bool WriteSpans(const std::string& path, const std::vector<StmtSpans>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "stmt,text,statement_us,statement.parse_us,statement.plan_us,"
               "plan.cache_probe_us,plan.compile_us,plan.bind_params_us,"
               "statement.queue_us,statement.execute_us,statement.encode_us,"
               "statement.decode_us,exact_hits,subsumed_hits,misses,admitted,"
               "declined,evicted\n");
  for (const StmtSpans& s : spans) {
    std::fprintf(f,
                 "%u,%u,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,"
                 "%u,%u,%u,%u,%u,%u\n",
                 s.id, s.text, s.outside, s.parse, s.plan, s.probe, s.compile,
                 s.bind, s.queue, s.exec, s.encode, s.decode, s.exact,
                 s.subsumed, s.miss, s.admit, s.decline, s.evict);
  }
  return std::fclose(f) == 0;
}

}  // namespace sqlbench
