// SQL serving benchmark for recycledb.
//
//   sqlbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-dir <dir>]
//
// One run = one workload against a QueryService over TPC-H SF 0.05 with 4
// service workers; `wire_dashboard` goes through net::RecycleServer and
// net::Client over loopback. Every statement is SQL text generated from the
// seed before timing (workloads.cc). Latencies are raw per-statement samples
// on this program's clock.
//
// --trace 0: run the window as eight slices (read figures are medians over
//   them), with a chunk of a commit probe after each slice on the read-only
//   workloads and one continuous stretch after an unmeasured lead-in slice
//   on update_mix; check answers against a recycler-less reference service
//   on the same catalog; set up four more times for setup_s (the median of
//   five). Prints the end-to-end metrics.
// --trace 1: an untraced half window, then a fresh set-up with
//   ServiceConfig::trace_sample_n = 1 and a traced half window. Prints the
//   per-layer metrics from the traced half (self times from the service's
//   spans and the benchmark's own spans around public calls, plus counter
//   deltas) and bench.trace_overhead (traced / untraced qps). The spans of
//   every traced statement are written to <trace-dir>/<workload>.csv.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. Exit status 1 on a wrong answer, 2 on a set-up failure.

#include <sys/resource.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "answers.h"
#include "catalog/catalog.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "server/query_service.h"
#include "spans.h"
#include "stats.h"
#include "tpch/tpch.h"
#include "util/str.h"
#include "workloads.h"

namespace sqlbench {
namespace {

using namespace recycledb;  // NOLINT: the benchmark drives the whole stack

constexpr double kScaleFactor = 0.05;
constexpr uint64_t kDataSeed = 42;
constexpr int kWorkers = 4;
constexpr size_t kSetupRepeats = 5;
/// Commit probe length on the read-only workloads, per slice: a multiple of
/// the writer's 20-statement block, so each chunk ends with the DELETE that
/// removes every probe row again.
constexpr size_t kProbeWritesPerSlice = 160;
/// The measured window runs as this many equal slices, with a chunk of the
/// commit probe after each; the end-to-end read figures are medians over the
/// slices, so a stall of the host moves one slice, not the figure, and the
/// probe samples the whole run rather than one stretch of it.
constexpr int kSlices = 8;
/// Open-loop writer rate of update_mix, statements per second.
constexpr double kWriterRate = 20;
/// Identity tolerance of the traced run: the median per-statement residual
/// (statement time minus every span inside it) may be at most one uncovered
/// thread handoff (the result future waking its client, which no span
/// covers) plus a tenth of the median statement time.
constexpr double kIdentityHandoffUs = 20;
constexpr double kIdentityShare = 0.10;

struct Workload {
  const char* name;
  size_t pool_budget;  ///< RecyclerConfig::max_bytes
  bool wire;           ///< readers are net::Client connections
  int readers;         ///< closed-loop read sessions
  bool writer;         ///< one open-loop writer session
  ReadStatements (*reads)(uint64_t seed, int sessions);
};

const Workload kWorkloads[] = {
    {"hot_dashboard", size_t{1} << 30, false, 4, false, DashboardReads},
    {"cold_adhoc", size_t{64} << 20, false, 4, false, AdhocReads},
    {"update_mix", size_t{1} << 30, false, 3, true, MixedReads},
    {"wire_dashboard", size_t{1} << 30, true, 4, false, DashboardReads},
};

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "sqlbench: %s\n", msg.c_str());
  std::exit(2);
}

// --- the stack under test ----------------------------------------------------

/// Catalog, service and (wire) server plus client connections. The
/// connections are closed and the server stopped before the service goes,
/// and the service before the catalog.
struct Stack {
  std::unique_ptr<Catalog> cat;
  std::unique_ptr<QueryService> svc;
  std::unique_ptr<net::RecycleServer> server;
  std::vector<std::unique_ptr<net::Client>> clients;  ///< readers, then probe
  uint64_t order_key_base = 0;     ///< first o_orderkey above the loaded ones
  uint64_t supplier_key_base = 0;  ///< first s_suppkey above the loaded ones

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() { StopService(); }

  void StopService() {
    for (auto& c : clients) c->Close();
    clients.clear();
    if (server != nullptr) server->Stop();
    server.reset();
    svc.reset();
  }
};

/// Runs `texts` once each and keeps the traced spans (traced services).
void WarmUp(Stack* st, const Workload& w, const ReadStatements& rs,
            std::vector<StmtSpans>* spans) {
  auto keep = [&](uint32_t idx, const std::shared_ptr<const obs::QueryTrace>& t,
                  const std::string& text) {
    if (spans == nullptr) return;
    StmtSpans s;
    s.text = idx;
    if (t != nullptr) FromTrace(*t, &s);
    if (!text.empty()) FromTraceText(text, &s);
    spans->push_back(s);
  };
  if (w.wire) {
    for (uint32_t idx : rs.warmup) {
      auto r = st->clients[0]->Query(rs.texts[idx]);
      if (!r.ok()) Die("warm-up: " + r.status().ToString());
      keep(idx, nullptr, r.value().trace);
    }
    return;
  }
  Session sess;
  std::vector<std::future<Result<QueryResult>>> futs;
  for (uint32_t idx : rs.warmup)
    futs.push_back(st->svc->Submit(Request{rs.texts[idx], &sess, {}}).future);
  for (size_t i = 0; i < futs.size(); ++i) {
    auto r = futs[i].get();
    if (!r.ok()) Die("warm-up: " + r.status().ToString());
    keep(rs.warmup[i], r.value().trace, "");
  }
}

/// Data load, service start (and server start plus connects), warm-up.
std::unique_ptr<Stack> SetUp(const Workload& w, const ReadStatements& rs,
                             bool traced, std::vector<StmtSpans>* warm_spans) {
  auto st = std::make_unique<Stack>();
  st->cat = std::make_unique<Catalog>();
  tpch::TpchConfig tcfg;
  tcfg.scale_factor = kScaleFactor;
  tcfg.seed = kDataSeed;
  Status s = tpch::LoadTpch(st->cat.get(), tcfg);
  if (!s.ok()) Die("load: " + s.ToString());
  for (Oid k : st->cat->FindTable("orders")->column(0)->Data<Oid>())
    st->order_key_base = std::max(st->order_key_base, k + 1);
  for (Oid k : st->cat->FindTable("supplier")->column(0)->Data<Oid>())
    st->supplier_key_base = std::max(st->supplier_key_base, k + 1);
  ServiceConfig cfg;
  cfg.num_workers = kWorkers;
  cfg.recycler.max_bytes = w.pool_budget;
  cfg.trace_sample_n = traced ? 1 : 0;
  st->svc = std::make_unique<QueryService>(st->cat.get(), cfg);
  if (w.wire) {
    st->server = std::make_unique<net::RecycleServer>(st->svc.get());
    s = st->server->Start();
    if (!s.ok()) Die("server start: " + s.ToString());
    net::ClientConfig ccfg;
    ccfg.port = st->server->port();
    for (int i = 0; i <= w.readers; ++i) {
      st->clients.push_back(std::make_unique<net::Client>());
      s = st->clients.back()->Connect(ccfg);
      if (!s.ok()) Die("connect: " + s.ToString());
    }
  }
  WarmUp(st.get(), w, rs, warm_spans);
  return st;
}

// --- one measured phase ------------------------------------------------------

struct Counters {
  ServiceStats svc;
  RecyclerStats rec;
  uint64_t busy = 0;
  size_t pool_bytes = 0, pool_entries = 0;

  static Counters Read(const QueryService& svc) {
    Counters c;
    c.svc = svc.SnapshotStats();
    c.rec = svc.recycler().stats();
    const obs::RegistrySnapshot snap = svc.MetricsSnapshot();
    if (const obs::MetricValue* m = snap.Find("net_busy_rejections"))
      c.busy = m->value;
    c.pool_bytes = svc.recycler().pool_bytes();
    c.pool_entries = svc.recycler().pool_entries();
    return c;
  }
};

/// What one reader session did in the window.
struct SessionLog {
  uint64_t attempted = 0, failed = 0;
  std::array<std::vector<double>, kSlices> lat_us;  ///< per slice
  std::array<uint64_t, kSlices> ok{};               ///< per slice
  std::vector<uint8_t> seen;  ///< per text: a result is captured
  std::vector<std::pair<uint32_t, QueryResult>> captured;
  std::vector<StmtSpans> spans;
  size_t next = 0;  ///< position in the session's stream
  bool exhausted = false;
  std::string first_error;
};

/// A stretch of continuous load: `slices` consecutive slices of `slice_len`
/// from `start`, numbered from `first`. Statements submitted (or, for the
/// writer, due) in a slice numbered below 0 are the lead-in: they run but
/// are not measured.
struct Window {
  Clock::time_point start;
  Clock::duration slice_len{};
  int first = 0, slices = 1;

  Clock::time_point End() const { return start + slice_len * slices; }
  int SliceOf(Clock::time_point t) const {
    const int k = static_cast<int>((t - start) / slice_len);
    return first + std::min(k, slices - 1);
  }
};

struct PhaseOpts {
  bool traced = false;
  bool capture_all = false;  ///< keep one result of every text (encode timing)
};

void Record(const ReadStatements& rs, const PhaseOpts& o, uint32_t idx,
            int slice, double us, Result<QueryResult> r,
            const std::string* wire_trace, SessionLog* log) {
  ++log->attempted;
  if (!r.ok()) {
    ++log->failed;
    if (log->first_error.empty()) log->first_error = r.status().ToString();
  }
  if (slice < 0) return;
  log->lat_us[slice].push_back(us);
  if (!r.ok()) {
    if (o.traced) {
      StmtSpans s;
      s.text = idx;
      s.outside = static_cast<float>(us);
      log->spans.push_back(s);
    }
    return;
  }
  ++log->ok[slice];
  QueryResult& q = r.value();
  if (o.traced) {
    StmtSpans s;
    s.text = idx;
    s.outside = static_cast<float>(us);
    if (q.trace != nullptr) FromTrace(*q.trace, &s);
    if (wire_trace != nullptr) FromTraceText(*wire_trace, &s);
    log->spans.push_back(s);
  }
  if (!log->seen[idx] && (o.capture_all || rs.checked[idx])) {
    log->seen[idx] = 1;
    q.trace.reset();
    log->captured.emplace_back(idx, std::move(q));
  }
}

void ReadLoop(Stack* st, const ReadStatements& rs, int session,
              const Window& win, const PhaseOpts& o, SessionLog* log) {
  const std::vector<uint32_t>& stream = rs.streams[session];
  net::Client* client = st->clients.empty() ? nullptr
                                            : st->clients[session].get();
  Session sess;
  size_t& i = log->next;
  const Clock::time_point end = win.End();
  for (Clock::time_point now = Clock::now(); now < end;) {
    if (i == stream.size()) {
      if (!rs.may_wrap) {
        log->exhausted = true;
        break;
      }
      i = 0;
    }
    const uint32_t idx = stream[i++];
    const Clock::time_point t0 = Clock::now();
    const int slice = win.SliceOf(t0);
    if (client != nullptr) {
      auto r = client->Query(rs.texts[idx]);
      now = Clock::now();
      const double us = MicrosBetween(t0, now);
      if (r.ok()) {
        net::Client::Response resp = std::move(r).value();
        Record(rs, o, idx, slice, us, std::move(resp.result), &resp.trace,
               log);
      } else {
        Record(rs, o, idx, slice, us, r.status(), nullptr, log);
      }
    } else {
      auto r = st->svc->Submit(Request{rs.texts[idx], &sess, {}}).future.get();
      now = Clock::now();
      Record(rs, o, idx, slice, MicrosBetween(t0, now), std::move(r), nullptr,
             log);
    }
  }
}

/// Write statements: the open-loop writer (latency from each statement's
/// due time) or the closed-loop commit probe (from its issue time).
struct WriteLog {
  uint64_t attempted = 0, failed = 0;
  /// Writer statements that succeeded, per slice of due time.
  std::array<uint64_t, kSlices> window_ok{};
  std::vector<double> lat_us;     ///< due (writer) or issue (probe) to done
  std::vector<double> commit_us;  ///< issue to done
  std::vector<double> lag_us;     ///< writer: issue minus due
  std::string first_error;
};

Status RunWrite(Stack* st, Session* sess, const std::string& sql) {
  if (!st->clients.empty()) return st->clients.back()->Execute(sql).status();
  return st->svc->Submit(Request{sql, sess, {}}).future.get().status();
}

/// Issues ops[i] at its due time, i / kWriterRate after the window start,
/// until the window ends.
void WriterLoop(Stack* st, const std::vector<std::string>& ops,
                const Window& win, WriteLog* log) {
  Session sess;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Clock::time_point due =
        win.start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(i / kWriterRate));
    if (due >= win.End()) break;
    std::this_thread::sleep_until(due);
    const Clock::time_point issue = Clock::now();
    Status s = RunWrite(st, &sess, ops[i]);
    const Clock::time_point done = Clock::now();
    ++log->attempted;
    if (!s.ok()) {
      ++log->failed;
      if (log->first_error.empty()) log->first_error = s.ToString();
    }
    const int slice = win.SliceOf(due);
    if (slice < 0) continue;
    log->lag_us.push_back(MicrosBetween(due, issue));
    log->lat_us.push_back(MicrosBetween(due, done));
    log->commit_us.push_back(MicrosBetween(issue, done));
    if (s.ok()) ++log->window_ok[slice];
  }
}

void ProbeLoop(Stack* st, const std::vector<std::string>& ops, size_t begin,
               size_t end, WriteLog* log) {
  Session sess;
  for (size_t i = begin; i < end; ++i) {
    const std::string& op = ops[i];
    const Clock::time_point issue = Clock::now();
    Status s = RunWrite(st, &sess, op);
    const double us = MicrosBetween(issue, Clock::now());
    ++log->attempted;
    log->lat_us.push_back(us);
    log->commit_us.push_back(us);
    if (!s.ok()) {
      ++log->failed;
      if (log->first_error.empty()) log->first_error = s.ToString();
    }
  }
}

struct Phase {
  double window_s = 0;
  uint64_t attempted = 0, failed = 0;
  uint64_t reads_ok = 0;  ///< in the measured slices
  uint64_t reads_run = 0;  ///< OK reads in the window, lead-in included
  std::array<std::vector<double>, kSlices> read_us;  ///< per slice
  std::array<uint64_t, kSlices> reads_ok_by_slice{};
  std::array<double, kSlices> slice_s{};  ///< measured slice durations
  WriteLog writes;
  std::vector<StmtSpans> spans, warm_spans;
  /// Results compared with the reference service, and (update_mix window
  /// reads, which saw older snapshots) results kept only for encode timing.
  std::vector<std::pair<uint32_t, QueryResult>> captured, codec_only;
  Counters c0, c1, c2;  ///< window start, window end, after the writes
  bool exhausted = false;
  std::string first_error;
  size_t answers_checked = 0, answers_wrong = 0;
  std::string answer_error;
};

/// Runs the window (readers plus the update_mix writer), then the write
/// statements that follow it, on a set-up stack.
void RunWindow(Stack* st, const Workload& w, const ReadStatements& rs,
               uint64_t seed, double seconds, const PhaseOpts& o, Phase* ph) {
  std::vector<SessionLog> logs(w.readers);
  for (SessionLog& l : logs) {
    l.seen.assign(rs.texts.size(), 0);
    for (auto& v : l.lat_us) v.reserve(size_t{1} << 16);
    if (o.traced) l.spans.reserve(size_t{1} << 17);
  }
  const size_t n_writer_ops =
      static_cast<size_t>(kWriterRate * seconds * (kSlices + 1) / kSlices) + 1;
  const std::vector<std::string> writer_ops =
      w.writer ? WriterStatements(seed, st->order_key_base, n_writer_ops)
               : std::vector<std::string>();
  const std::vector<std::string> probe_ops =
      w.writer ? std::vector<std::string>()
               : ProbeStatements(seed, st->supplier_key_base,
                                 kSlices * kProbeWritesPerSlice);

  // Runs the readers (and the writer) over one stretch of load.
  auto run = [&](Window* win) {
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    auto wait_go = [&] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    };
    for (int s = 0; s < w.readers; ++s) {
      threads.emplace_back([&, s] {
        wait_go();
        ReadLoop(st, rs, s, *win, o, &logs[s]);
      });
    }
    if (w.writer) {
      threads.emplace_back([&] {
        wait_go();
        WriterLoop(st, writer_ops, *win, &ph->writes);
      });
    }
    while (ready.load() < static_cast<int>(threads.size()))
      std::this_thread::yield();
    win->start = Clock::now();
    go.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
    return MicrosBetween(win->start, Clock::now()) / 1e6;
  };
  const Clock::duration slice_len =
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(seconds / kSlices));

  ph->c0 = Counters::Read(*st->svc);
  if (w.writer) {
    // One continuous stretch, so the writer's rate holds across slice
    // boundaries, led in by one unmeasured slice: the first commits after
    // set-up meet a pool that no commit has touched yet.
    Window win;
    win.slice_len = slice_len;
    win.first = -1;
    win.slices = kSlices + 1;
    run(&win);
    for (int k = 0; k < kSlices; ++k)
      ph->slice_s[k] = std::chrono::duration<double>(slice_len).count();
  } else {
    for (int k = 0; k < kSlices; ++k) {
      Window win;
      win.slice_len = slice_len;
      win.first = k;
      ph->slice_s[k] = run(&win);
      ProbeLoop(st, probe_ops, k * kProbeWritesPerSlice,
                (k + 1) * kProbeWritesPerSlice, &ph->writes);
    }
  }
  for (int k = 0; k < kSlices; ++k) ph->window_s += ph->slice_s[k];
  ph->c1 = Counters::Read(*st->svc);
  if (w.writer) {
    // The run ends with an insert-only commit, so propagated pool entries
    // are among what the answer check reads.
    const std::string last = WriterInsert(
        seed, st->order_key_base + kWriterRowsPerInsert * n_writer_ops);
    Session sess;
    Status s = RunWrite(st, &sess, last);
    ++ph->writes.attempted;
    if (!s.ok()) {
      ++ph->writes.failed;
      if (ph->writes.first_error.empty()) ph->writes.first_error = s.ToString();
    }
  }
  ph->c2 = Counters::Read(*st->svc);

  for (SessionLog& l : logs) {
    ph->attempted += l.attempted;
    ph->failed += l.failed;
    ph->reads_run += l.attempted - l.failed;
    for (int k = 0; k < kSlices; ++k) {
      ph->read_us[k].insert(ph->read_us[k].end(), l.lat_us[k].begin(),
                            l.lat_us[k].end());
      ph->reads_ok_by_slice[k] += l.ok[k];
      ph->reads_ok += l.ok[k];
    }
    ph->spans.insert(ph->spans.end(), l.spans.begin(), l.spans.end());
    for (auto& c : l.captured)
      (w.writer ? ph->codec_only : ph->captured).push_back(std::move(c));
    ph->exhausted = ph->exhausted || l.exhausted;
    if (ph->first_error.empty()) ph->first_error = l.first_error;
  }
  for (size_t i = 0; i < ph->spans.size(); ++i)
    ph->spans[i].id = static_cast<uint32_t>(i);
  ph->attempted += ph->writes.attempted;
  ph->failed += ph->writes.failed;
  if (ph->first_error.empty()) ph->first_error = ph->writes.first_error;
}

/// update_mix: every read text on the final state, read through the
/// service under test after its last commit.
void CaptureFinalReads(Stack* st, const ReadStatements& rs, Phase* ph) {
  Session sess;
  for (uint32_t idx = 0; idx < rs.texts.size(); ++idx) {
    auto r = st->svc->Submit(Request{rs.texts[idx], &sess, {}}).future.get();
    if (!r.ok()) Die("final read: " + r.status().ToString());
    r.value().trace.reset();
    ph->captured.emplace_back(idx, std::move(r).value());
  }
}

/// Stops the service under test and compares the captured answers with a
/// recycler-less reference service over the same catalog.
void CheckAnswers(Stack* st, const ReadStatements& rs, Phase* ph) {
  st->StopService();
  ServiceConfig rcfg;
  rcfg.num_workers = kWorkers;
  rcfg.enable_recycler = false;
  QueryService ref(st->cat.get(), rcfg);
  Session sess;
  std::map<uint32_t, std::future<Result<QueryResult>>> futs;
  for (const auto& [idx, r] : ph->captured)
    if (rs.checked[idx] && futs.count(idx) == 0)
      futs.emplace(idx, ref.Submit(Request{rs.texts[idx], &sess, {}}).future);
  std::map<uint32_t, Result<QueryResult>> want;
  for (auto& [idx, f] : futs) want.emplace(idx, f.get());
  for (const auto& [idx, got] : ph->captured) {
    if (!rs.checked[idx]) continue;
    ++ph->answers_checked;
    const Result<QueryResult>& ref_r = want.at(idx);
    std::string why;
    if (!ref_r.ok()) {
      why = "reference failed: " + ref_r.status().ToString();
    } else if (SameAnswer(got, ref_r.value(), &why)) {
      continue;
    }
    if (++ph->answers_wrong == 1)
      ph->answer_error = why + " [" + rs.texts[idx] + "]";
  }
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --- reporting ---------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value;
};

void Emit(std::vector<Metric>* out, const std::string& name, double value,
          const std::string& unit, const std::string& note = "") {
  out->push_back({name, unit, value});
  std::printf("  %-32s %14.4f %-8s%s\n", name.c_str(), value, unit.c_str(),
              note.c_str());
}

std::string SampleNote(const Quantile& q) {
  std::string s = StrFormat("  (n=%zu", q.n);
  if (q.reduced) s += StrFormat(", only p%.2f has 10 samples above it", q.pct);
  return s + ")";
}

/// Median and tail percentile `tail` of `v`, as <name>_p50_us and
/// <name>_p<tail>_us.
void EmitLatency(std::vector<Metric>* out, const std::string& name,
                 std::vector<double> v, int tail) {
  Quantile p50 = Percentile(&v, 50);
  Quantile pt = Percentile(&v, tail);
  Emit(out, name + "_p50_us", p50.value, "us", SampleNote(p50));
  Emit(out, StrFormat("%s_p%d_us", name.c_str(), tail), pt.value, "us",
       SampleNote(pt));
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::string j = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) j += ", ";
    j += StrFormat("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   metrics[i].name.c_str(), metrics[i].value,
                   metrics[i].unit.c_str());
  }
  j += "}}";
  std::printf("%s\n", j.c_str());
}

void PrintSizes(const Stack& st, const Workload& w, const Phase& ph) {
  const double mb = 1024.0 * 1024.0;
  const RecyclerStats& r = ph.c1.rec;
  // Working set: every entry the pool admitted since start-up, at the mean
  // resident entry size (equals the resident bytes while nothing is
  // evicted or invalidated).
  const double mean_entry =
      ph.c1.pool_entries == 0
          ? 0
          : static_cast<double>(ph.c1.pool_bytes) / ph.c1.pool_entries;
  const double working_set = mean_entry * static_cast<double>(r.admitted);
  std::string verdict =
      working_set <= static_cast<double>(w.pool_budget) ? "fits" : "exceeds";
  // Commits drop and re-admit entries, so admissions overstate the working
  // set of a workload with writes.
  if (w.writer) verdict = "(n/a with commits) vs";
  std::printf(
      "sizes: lineitem_rows=%zu orders_rows=%zu pool_budget_mb=%.1f "
      "working_set_mb=%.1f final_pool_mb=%.1f admitted=%llu evicted=%llu "
      "-> working set %s the budget\n",
      st.cat->FindTable("lineitem")->num_rows(),
      st.cat->FindTable("orders")->num_rows(), w.pool_budget / mb,
      working_set / mb, ph.c2.pool_bytes / mb,
      static_cast<unsigned long long>(r.admitted),
      static_cast<unsigned long long>(r.evicted), verdict.c_str());
}

void PrintPhaseSummary(const char* label, const Workload& w, const Phase& ph) {
  std::printf(
      "%s: window %.3f s, %llu statements attempted, %llu failed, %llu "
      "reads ok, %llu writes, answers checked %zu, wrong %zu\n",
      label, ph.window_s, static_cast<unsigned long long>(ph.attempted),
      static_cast<unsigned long long>(ph.failed),
      static_cast<unsigned long long>(ph.reads_ok),
      static_cast<unsigned long long>(ph.writes.attempted), ph.answers_checked,
      ph.answers_wrong);
  const RecyclerStats& r0 = ph.c0.rec;
  const RecyclerStats& r1 = ph.c1.rec;
  std::printf("  window recycler hit ratio %.4f (%llu of %llu monitored)\n",
              r1.monitored == r0.monitored
                  ? 0.0
                  : static_cast<double>(r1.hits - r0.hits) /
                        static_cast<double>(r1.monitored - r0.monitored),
              static_cast<unsigned long long>(r1.hits - r0.hits),
              static_cast<unsigned long long>(r1.monitored - r0.monitored));
  if (!ph.first_error.empty())
    std::printf("  first error: %s\n", ph.first_error.c_str());
  if (ph.answers_wrong != 0)
    std::printf("  WRONG ANSWER: %s\n", ph.answer_error.c_str());
  if (ph.exhausted)
    std::printf("  note: a session used up its pre-generated stream\n");
  if (w.writer) {
    std::vector<double> lag = ph.writes.lag_us;
    Quantile q = Percentile(&lag, 95);
    std::printf("  bench.writer_lag_us_p95 %.1f us%s\n", q.value,
                SampleNote(q).c_str());
  }
}

/// OK statements per second of the window (reads, plus the update_mix
/// writer's statements).
double Qps(const Phase& ph) {
  uint64_t ok = ph.reads_ok;
  for (uint64_t n : ph.writes.window_ok) ok += n;
  return static_cast<double>(ok) / ph.window_s;
}

/// End-to-end metrics of an untraced phase: read figures are medians over
/// the window's slices; the write figures pool every write statement. The
/// tail is p95 for reads and writes: on a shared 4-vCPU host the p99 of a
/// ~100 us wire round trip moved by 30-60% between runs of the same code,
/// more than any bound the benchmark may set, while p95 moved by ~15%.
std::vector<Metric> EndToEnd(const Phase& ph, double setup_s,
                             double peak_rss_mb) {
  std::vector<double> qps, p50, p95;
  size_t n_reads = 0, n_p95_short = 0;
  for (int k = 0; k < kSlices; ++k) {
    std::vector<double> v = ph.read_us[k];
    n_reads += v.size();
    qps.push_back((ph.reads_ok_by_slice[k] + ph.writes.window_ok[k]) /
                  ph.slice_s[k]);
    p50.push_back(Percentile(&v, 50).value);
    const Quantile q = Percentile(&v, 95);
    if (q.reduced) ++n_p95_short;
    p95.push_back(q.value);
  }
  std::printf("per slice (%d slices):\n", kSlices);
  for (auto [name, v] : {std::pair<const char*, const std::vector<double>*>{
                             "qps", &qps},
                         {"read_p50_us", &p50},
                         {"read_p95_us", &p95}}) {
    std::printf("  %-12s", name);
    for (double x : *v) std::printf(" %12.2f", x);
    std::printf("\n");
  }
  std::vector<Metric> m;
  std::printf("end-to-end metrics:\n");
  Emit(&m, "qps", Median(qps), "1/s",
       StrFormat("  (median of slices; whole window %.2f)", Qps(ph)));
  Emit(&m, "read_p50_us", Median(p50), "us",
       StrFormat("  (median of slices; n=%zu)", n_reads));
  Emit(&m, "read_p95_us", Median(p95), "us",
       StrFormat("  (median of slices; n=%zu%s)", n_reads,
                 n_p95_short != 0 ? ", a slice lacks 10 samples above p95"
                                  : ""));
  EmitLatency(&m, "write", ph.writes.lat_us, 95);
  Emit(&m, "success_rate",
       ph.attempted == 0 ? 0
                         : static_cast<double>(ph.attempted - ph.failed) /
                               static_cast<double>(ph.attempted),
       "ratio");
  Emit(&m, "setup_s", setup_s, "s");
  Emit(&m, "peak_rss_mb", peak_rss_mb, "MB");
  return m;
}

/// Timing of EncodeResultSet / DecodeResultSet on each captured result.
struct Codec {
  double encode_us = 0, decode_us = 0, bytes = 0;
};

std::map<uint32_t, Codec> TimeCodec(const Phase& ph) {
  constexpr int kReps = 31;
  std::map<uint32_t, Codec> out;
  std::vector<const std::pair<uint32_t, QueryResult>*> all;
  for (const auto& c : ph.captured) all.push_back(&c);
  for (const auto& c : ph.codec_only) all.push_back(&c);
  for (const auto* c : all) {
    const auto& [idx, r] = *c;
    if (out.count(idx) != 0) continue;
    std::vector<double> enc, dec;
    std::string bytes;
    for (int i = 0; i < kReps; ++i) {
      const Clock::time_point t0 = Clock::now();
      bytes = net::EncodeResultSet(r);
      const Clock::time_point t1 = Clock::now();
      auto back = net::DecodeResultSet(bytes);
      const Clock::time_point t2 = Clock::now();
      if (!back.ok()) Die("decode: " + back.status().ToString());
      enc.push_back(MicrosBetween(t0, t1));
      dec.push_back(MicrosBetween(t1, t2));
    }
    out[idx] = {Median(enc), Median(dec), static_cast<double>(bytes.size())};
  }
  return out;
}

/// Per-layer metrics of a traced phase.
std::vector<Metric> PerLayer(const Workload& w, Phase* ph, double overhead) {
  std::vector<Metric> m;
  const std::map<uint32_t, Codec> codec = TimeCodec(*ph);
  std::vector<double> enc, dec, bytes;
  for (StmtSpans& s : ph->spans) {
    auto it = codec.find(s.text);
    if (it == codec.end()) continue;
    enc.push_back(it->second.encode_us);
    dec.push_back(it->second.decode_us);
    bytes.push_back(it->second.bytes);
    if (w.wire) {
      s.encode = static_cast<float>(it->second.encode_us);
      s.decode = static_cast<float>(it->second.decode_us);
    }
  }

  // Per statement: the named spans, and the self time of each layer.
  std::vector<double> outside, parse, probe, bind, queue, exec, residual;
  std::vector<double> l_plan, l_sql, l_net, compile;
  size_t over_spanned = 0;
  for (const StmtSpans& s : ph->spans) {
    if (s.exec == 0 && s.queue == 0) continue;  // failed: no service spans
    outside.push_back(s.outside);
    parse.push_back(s.parse);
    probe.push_back(s.probe);
    if (s.bind > 0) bind.push_back(s.bind);
    if (s.compile > 0) compile.push_back(s.compile);
    queue.push_back(s.queue);
    exec.push_back(s.exec);
    residual.push_back(s.Residual());
    if (s.Residual() < -5) ++over_spanned;
    l_plan.push_back(s.probe + s.PlanSelf());
    l_sql.push_back(s.parse + s.compile + s.bind);
    l_net.push_back(s.encode + s.decode);
  }
  for (const StmtSpans& s : ph->warm_spans)
    if (s.compile > 0) compile.push_back(s.compile);
  // Counter deltas span the whole window, so they are per OK read of it.
  const double n_reads = std::max<double>(1, static_cast<double>(ph->reads_run));
  const ServiceStats& s0 = ph->c0.svc;
  const ServiceStats& s1 = ph->c1.svc;
  const ServiceStats& s2 = ph->c2.svc;
  const RecyclerStats& r0 = ph->c0.rec;
  const RecyclerStats& r1 = ph->c1.rec;
  const RecyclerStats& r2 = ph->c2.rec;
  auto ratio = [](double a, double b) { return b == 0 ? 0 : a / b; };
  auto p = [](std::vector<double> v, double pct) {
    return Percentile(&v, pct).value;
  };

  const double med_outside = p(outside, 50);
  const double med_residual = p(residual, 50);
  const double tolerance = kIdentityHandoffUs + kIdentityShare * med_outside;
  const bool identity_ok = std::abs(med_residual) <= tolerance;
  std::printf(
      "identity: %zu traced statements; median statement %.2f us, median "
      "residual %.2f us (%.1f%%), tolerance %.0f us + %.0f%% of the median "
      "statement = %.2f us: %s%s; %zu statements whose spans exceed their "
      "statement time by >5 us\n",
      outside.size(), med_outside, med_residual,
      100 * ratio(med_residual, med_outside), kIdentityHandoffUs,
      100 * kIdentityShare, tolerance, identity_ok ? "holds" : "VIOLATED",
      w.wire ? " (the server's I/O loop, which reads, encodes and sends "
               "each frame, has no spans)"
             : "",
      over_spanned);
  uint64_t dec_exact = 0;
  for (const StmtSpans& s : ph->spans) dec_exact += s.exact;
  std::printf(
      "decision records of the traced statements: exact hits %llu; recycler "
      "counter delta over the window (lead-in included) %llu\n",
      static_cast<unsigned long long>(dec_exact),
      static_cast<unsigned long long>(r1.exact_hits - r0.exact_hits));

  std::printf("per-layer metrics:\n");
  Emit(&m, "server.queue_us_p50", p(queue, 50), "us");
  Emit(&m, "server.queue_us_p99", p(queue, 99), "us");
  Emit(&m, "server.unattributed_us_p50", med_residual, "us");
  Emit(&m, "plan_cache.hit_ratio",
       ratio(s1.plan_hits - s0.plan_hits, s1.plan_lookups - s0.plan_lookups),
       "ratio");
  Emit(&m, "plan_cache.probe_us_p50", p(probe, 50), "us");
  Emit(&m, "plan_cache.compiles", static_cast<double>(s2.plan_compiles),
       "count");
  Emit(&m, "plan_cache.invalidations",
       static_cast<double>(s2.plan_invalidations), "count");
  Emit(&m, "sql.parse_us_p50", p(parse, 50), "us");
  Emit(&m, "sql.compile_us_p50", p(compile, 50), "us",
       StrFormat("  (n=%zu, set-up included)", compile.size()));
  Emit(&m, "sql.bind_us_p50", p(bind, 50), "us");
  Emit(&m, "exec.us_p50", p(exec, 50), "us");
  Emit(&m, "exec.us_p99", p(exec, 99), "us");
  const double match_us = (r1.match_ms - r0.match_ms) * 1e3 / n_reads;
  const double subsume_us =
      (r1.subsume_alg_ms - r0.subsume_alg_ms) * 1e3 / n_reads;
  Emit(&m, "engine.us_per_stmt", Mean(exec) - match_us - subsume_us, "us");
  Emit(&m, "interp.instrs_per_stmt",
       static_cast<double>(s1.instrs - s0.instrs) / n_reads, "1/stmt");
  Emit(&m, "recycler.hit_ratio",
       ratio(static_cast<double>(r1.hits - r0.hits),
             static_cast<double>(r1.monitored - r0.monitored)),
       "ratio");
  Emit(&m, "recycler.exact_hits", (r1.exact_hits - r0.exact_hits) / n_reads,
       "1/stmt");
  Emit(&m, "recycler.subsumed_hits",
       (r1.subsumed_hits + r1.combined_hits - r0.subsumed_hits -
        r0.combined_hits) / n_reads,
       "1/stmt");
  Emit(&m, "recycler.match_us_per_stmt", match_us, "us");
  Emit(&m, "recycler.subsume_us_per_stmt", subsume_us, "us");
  Emit(&m, "recycler.admitted", (r1.admitted - r0.admitted) / n_reads,
       "1/stmt");
  Emit(&m, "recycler.rejected", (r1.rejected - r0.rejected) / n_reads,
       "1/stmt");
  Emit(&m, "recycler.evicted", (r1.evicted - r0.evicted) / n_reads, "1/stmt");
  Emit(&m, "recycler.pool_bytes", static_cast<double>(ph->c1.pool_bytes),
       "bytes");
  Emit(&m, "recycler.excl_lock_share",
       ratio(static_cast<double>(s1.pool_excl_locks - s0.pool_excl_locks),
             static_cast<double>(s1.pool_excl_locks - s0.pool_excl_locks +
                                 s1.pool_shared_locks - s0.pool_shared_locks)),
       "ratio");
  Emit(&m, "recycler.propagated",
       static_cast<double>(r2.propagated - r0.propagated), "count");
  Emit(&m, "recycler.invalidated",
       static_cast<double>(r2.invalidated - r0.invalidated), "count");
  Emit(&m, "recycler.stale_declines",
       static_cast<double>(r2.stale_declines - r0.stale_declines), "count");
  Emit(&m, "governor.borrows",
       static_cast<double>(s1.pool_borrows - s0.pool_borrows), "count");
  Emit(&m, "governor.borrow_denied",
       static_cast<double>(s1.pool_borrow_denied - s0.pool_borrow_denied),
       "count");
  Emit(&m, "catalog.commit_us_p50", p(ph->writes.commit_us, 50), "us");
  Emit(&m, "catalog.commit_us_p99", p(ph->writes.commit_us, 99), "us");
  Emit(&m, "catalog.epochs_published",
       static_cast<double>(s2.snapshot_epoch - s0.snapshot_epoch), "count");
  Emit(&m, "bat.pool_encoded_bytes", static_cast<double>(s1.pool_encoded_bytes),
       "bytes");
  Emit(&m, "bat.encoding_savings_bytes",
       static_cast<double>(s1.encoding_savings_bytes), "bytes");
  Emit(&m, "net.roundtrip_us_p50", w.wire ? med_outside : 0, "us",
       w.wire ? "" : "  (n/a: in-process)");
  Emit(&m, "net.encode_us_p50", p(enc, 50), "us");
  Emit(&m, "net.decode_us_p50", p(dec, 50), "us");
  Emit(&m, "net.result_bytes_p50", p(bytes, 50), "bytes");
  Emit(&m, "net.busy_replies", static_cast<double>(ph->c1.busy - ph->c0.busy),
       "count");
  // Self time of each layer per statement, and its share of statement time.
  const std::pair<const char*, const std::vector<double>*> layers[] = {
      {"server", &queue}, {"plan_cache", &l_plan}, {"sql", &l_sql},
      {"exec", &exec},    {"net", &l_net},         {"unattributed", &residual}};
  const double sum_outside = Sum(outside);
  for (const auto& [name, v] : layers) {
    const std::string base = std::string("layer.") + name;
    Emit(&m, base + ".self_us_p50", p(*v, 50), "us");
    Emit(&m, base + ".self_us_p99", p(*v, 99), "us");
    Emit(&m, base + ".share", ratio(Sum(*v), sum_outside), "ratio");
  }
  std::vector<double> lag = ph->writes.lag_us;
  Emit(&m, "bench.writer_lag_us_p95", Percentile(&lag, 95).value, "us",
       w.writer ? "" : "  (n/a: no open-loop writer)");
  Emit(&m, "bench.trace_overhead", overhead, "ratio");
  Emit(&m, "bench.traced_statements", static_cast<double>(outside.size()),
       "count");
  Emit(&m, "bench.identity_ok", identity_ok ? 1 : 0, "bool");
  return m;
}

struct Args {
  std::string workload, trace_dir;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) Die("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--trace-dir") {
      a.trace_dir = v;
    } else {
      Die("unknown argument " + k);
    }
  }
  if (!have_workload) Die("--workload is required");
  if (!(a.seconds > 0 && a.seconds <= 600)) Die("--seconds out of range");
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads)
    if (args.workload == c.name) w = &c;
  if (w == nullptr) Die("unknown workload " + args.workload);

  const ReadStatements rs = w->reads(args.seed, w->readers);
  std::printf(
      "workload %s seed %llu seconds %.1f trace %d: SF %.2f, %d workers, "
      "%d %s read sessions%s, pool budget %zu MB, %zu distinct texts\n",
      w->name, static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, kScaleFactor, kWorkers, w->readers,
      w->wire ? "net::Client" : "in-process",
      w->writer ? " + 1 open-loop writer" : "", w->pool_budget >> 20,
      rs.texts.size());

  if (!args.trace) {
    // setup_s is the median of kSetupRepeats set-ups: the one the run is
    // measured on, and the rest after the run (and after the peak RSS is
    // read), so a stall of the host moves one of them, not the figure.
    std::vector<double> setup_s;
    auto timed_setup = [&] {
      const Clock::time_point t0 = Clock::now();
      std::unique_ptr<Stack> s = SetUp(*w, rs, false, nullptr);
      setup_s.push_back(MicrosBetween(t0, Clock::now()) / 1e6);
      return s;
    };
    std::unique_ptr<Stack> st = timed_setup();
    Phase ph;
    RunWindow(st.get(), *w, rs, args.seed, args.seconds, PhaseOpts{}, &ph);
    PrintSizes(*st, *w, ph);
    if (w->writer) CaptureFinalReads(st.get(), rs, &ph);
    CheckAnswers(st.get(), rs, &ph);
    const double peak_rss_mb = PeakRssMb();
    st.reset();
    while (setup_s.size() < kSetupRepeats) timed_setup();
    PrintPhaseSummary("run", *w, ph);
    std::printf("set-up times:");
    for (double s : setup_s) std::printf(" %.3f s", s);
    std::printf("\n");
    const std::vector<Metric> m = EndToEnd(ph, Median(setup_s), peak_rss_mb);
    const bool correct = ph.answers_wrong == 0;
    PrintJson(correct, ph.attempted, ph.failed, m);
    return correct ? 0 : 1;
  }

  // Traced run: an untraced half window for the overhead baseline, then a
  // traced half window on a fresh stack.
  const double half = args.seconds / 2;
  Phase plain;
  {
    std::unique_ptr<Stack> st = SetUp(*w, rs, false, nullptr);
    RunWindow(st.get(), *w, rs, args.seed, half, PhaseOpts{}, &plain);
    if (w->writer) CaptureFinalReads(st.get(), rs, &plain);
    CheckAnswers(st.get(), rs, &plain);
  }
  PrintPhaseSummary("untraced half", *w, plain);
  Phase traced;
  std::unique_ptr<Stack> st = SetUp(*w, rs, true, &traced.warm_spans);
  PhaseOpts o;
  o.traced = true;
  o.capture_all = true;
  RunWindow(st.get(), *w, rs, args.seed, half, o, &traced);
  PrintSizes(*st, *w, traced);
  if (w->writer) CaptureFinalReads(st.get(), rs, &traced);
  CheckAnswers(st.get(), rs, &traced);
  PrintPhaseSummary("traced half", *w, traced);
  const double overhead = Qps(traced) / std::max(Qps(plain), 1e-9);
  std::vector<Metric> m = PerLayer(*w, &traced, overhead);
  if (!args.trace_dir.empty()) {
    const std::string path = args.trace_dir + "/" + w->name + ".csv";
    if (WriteSpans(path, traced.spans))
      std::printf("spans of %zu statements written to %s\n",
                  traced.spans.size(), path.c_str());
    else
      std::printf("could not write spans to %s\n", path.c_str());
  }
  const bool correct = plain.answers_wrong == 0 && traced.answers_wrong == 0;
  PrintJson(correct, plain.attempted + traced.attempted,
            plain.failed + traced.failed, m);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace sqlbench

int main(int argc, char** argv) { return sqlbench::Main(argc, argv); }
