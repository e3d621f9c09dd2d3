// Serving workloads: an in-process server::SkylineServer over a resident
// service::QueryEngine (the `mrsky serve` defaults), driven over loopback TCP
// by four client connections on four threads.
//
//   serve-read   the five query kinds only; every distinct query is answered
//                once during set-up, so timed reads are result-cache hits.
//   serve-mixed  connection 0 replaces every 10th request with an inline
//                insert of 16 rows carrying a TTL, so 2.5% of requests are
//                writes and every write makes the derived kinds cold again.
//
// A run has two timed phases: an open loop (fixed schedule; each latency is
// measured from the request's scheduled send, so queueing is charged to the
// server) and a closed loop (each connection sends its next request on
// reply), which gives goodput. Afterwards the replay gate re-executes the
// served queries single-threaded on a fresh engine at the version each
// response reports; every response at a sampled version must match its
// replay byte for byte.
#include <algorithm>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "harness.hpp"
#include "src/common/error.hpp"
#include "src/common/trace.hpp"
#include "src/core/mr_skyline.hpp"
#include "src/dataset/io.hpp"
#include "src/dataset/normalize.hpp"
#include "src/dataset/qws.hpp"
#include "src/mapreduce/cluster.hpp"
#include "src/server/client.hpp"
#include "src/server/protocol.hpp"
#include "src/server/server.hpp"
#include "src/service/query_engine.hpp"

namespace skybench {

namespace {

using namespace mrsky;

constexpr std::size_t kPopulation = 22000;
constexpr std::size_t kRows = 20000;
constexpr std::size_t kDim = 4;
constexpr std::size_t kConnections = 4;
constexpr double kReadRate = 4000.0;  ///< open-loop offered load, req/s in total
constexpr double kMixedRate = 50.0;
constexpr std::size_t kInsertEvery = 10;
constexpr std::size_t kInsertRows = 16;
constexpr std::int64_t kTtlTicks = 4;  ///< keeps the live set near kRows
constexpr double kGoodputLimitMs = 100.0;
constexpr double kOpenShare = 0.25;  ///< share of --seconds in the open loop; the rest is closed
constexpr int kSetups = 3;          ///< set-ups timed per run (median reported)
constexpr std::size_t kReplayVersions = 4;
constexpr std::int64_t kRecvTimeoutMs = 10000;

struct Kind {
  std::string line;      ///< on the wire
  service::Query query;  ///< for the replay engine
};

std::vector<Kind> query_kinds() {
  std::vector<double> weights(kDim, 1.0 / static_cast<double>(kDim));
  std::string w;
  for (std::size_t i = 0; i < kDim; ++i) {
    if (i > 0) w += ',';
    w += server::double_repr(weights[i]);
  }
  return {
      {"skyline", service::Query{service::SkylineQuery{}}},
      {"subspace 0,1", service::Query{service::SubspaceQuery{{0, 1}}}},
      {"skyband 2", service::Query{service::KSkybandQuery{2}}},
      {"representative 8", service::Query{service::RepresentativeQuery{8}}},
      {"topk 5 " + w, service::Query{service::TopKWeightedQuery{weights, 5}}},
  };
}

std::string insert_line(const data::PointSet& rows) {
  std::string line = "{\"insert\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    line += i > 0 ? ",[" : "[";
    bool first = true;
    for (double c : rows.point(i)) {
      if (!first) line += ',';
      first = false;
      line += server::double_repr(c);
    }
    line += ']';
  }
  return line + "],\"ttl_ticks\":" + std::to_string(kTtlTicks) + "}";
}

/// The insert batches of the writing connection: deterministic in the seed,
/// each normalised into the resident dataset's [0,1] attribute space.
class BatchSource {
 public:
  explicit BatchSource(std::uint64_t seed) : gen_(kDim, seed + 1000) {}
  const data::PointSet& batch(std::size_t i) {
    while (batches_.size() <= i) {
      batches_.push_back(data::normalize_min_max(gen_.generate_oriented(kInsertRows)));
    }
    return batches_[i];
  }

 private:
  data::QwsLikeGenerator gen_;
  std::vector<data::PointSet> batches_;
};

service::MutationBatch mutation(const data::PointSet& rows) {
  service::MutationBatch batch;
  batch.inserts = rows;
  batch.ttl_ticks.assign(rows.size(), kTtlTicks);
  return batch;
}

service::QueryEngineOptions engine_options() {
  service::QueryEngineOptions options;  // `mrsky serve` defaults
  options.cache_capacity = 64;
  return options;
}

/// Drops the ,"metrics":{...} tail: wall time differs run to run, the
/// payload must not.
std::string strip_metrics(const std::string& response) {
  const std::size_t pos = response.rfind(",\"metrics\":");
  return pos == std::string::npos ? response : response.substr(0, pos) + "}";
}

std::int64_t json_int(const std::string& s, const char* key) {
  const std::size_t pos = s.find(key);
  if (pos == std::string::npos) return -1;
  return std::strtoll(s.c_str() + pos + std::strlen(key), nullptr, 10);
}

bool replied_ok(const std::optional<std::string>& response) {
  return response && response->rfind("{\"ok\":true", 0) == 0;
}

/// One answered request, as the metrics and the replay gate need it.
struct Record {
  std::uint8_t kind = 0;  ///< index into query_kinds(); kInsert for writes
  bool open_loop = false;
  bool cache_hit = false;
  std::uint64_t version = 0;
  std::uint64_t payload_hash = 0;
  double sched_ms = 0.0;   ///< latency from the scheduled send (open loop)
  double rtt_ms = 0.0;     ///< latency from the actual send
  double engine_ms = 0.0;  ///< the engine's own wall_ns
  double lag_ms = 0.0;     ///< how late the generator sent (open loop)
  double at_s = 0.0;       ///< reply time since the phase started (windows)
  std::size_t bytes = 0;
};
constexpr std::uint8_t kInsert = 255;

/// Fills the fields of `rec` that come from its (ok) reply line.
void read_reply(const std::string& response, Record& rec) {
  rec.version = static_cast<std::uint64_t>(json_int(response, "\"version\":"));
  rec.bytes = response.size();
  if (rec.kind == kInsert) return;
  rec.cache_hit = response.find("\"cache_hit\":true") != std::string::npos;
  rec.engine_ms = static_cast<double>(json_int(response, "\"wall_ns\":")) / 1e6;
  rec.payload_hash = fnv1a(strip_metrics(response));
}

struct ConnLog {
  std::vector<Record> records;
  std::map<std::uint64_t, std::size_t> inserts;  ///< version -> batch index
  std::uint64_t errors = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t attempted = 0;
};

/// A running server plus its engine, and what setting it up cost.
struct Service {
  std::unique_ptr<service::QueryEngine> engine;
  std::unique_ptr<server::SkylineServer> srv;
  double setup_s = 0.0;
};

Service start_service(const std::string& csv, bool mixed, BatchSource& batches,
                      const std::vector<Kind>& kinds) {
  Service s;
  const auto t = Clock::now();
  s.engine = std::make_unique<service::QueryEngine>(
      data::normalize_min_max(data::read_csv_file(csv)), engine_options());
  s.srv = std::make_unique<server::SkylineServer>(*s.engine, server::ServerOptions{});
  s.srv->start();
  // Warm-up over the wire: each distinct query once (and, for the mixed
  // load, one write first, which engages the streaming path).
  server::LineClient client;
  client.connect("127.0.0.1", s.srv->port());
  (void)client.recv_line();
  if (mixed) {
    MRSKY_REQUIRE(replied_ok(client.request(insert_line(batches.batch(0)))),
                  "warm-up insert failed");
  }
  for (const Kind& k : kinds) {
    MRSKY_REQUIRE(replied_ok(client.request(k.line)), "warm-up query failed: " + k.line);
  }
  (void)client.request("quit");
  s.setup_s = seconds_between(t, Clock::now());
  return s;
}

/// A connection of the load generator, connected and warmed before any
/// timed phase so connection set-up never lands in a measured latency.
struct Conn {
  server::LineClient client;
  bool alive = true;  ///< false after a receive timeout (the stream is desynced)
};

/// Drives one connection for one phase. Open loop when `period` > 0 (request
/// i is due at `start` + i * period), closed loop otherwise, until `until`.
/// A writer sends an insert every `write_every` (open loop: every
/// kInsertEvery-th request, which is the same cadence).
void drive(Conn& conn, std::size_t index, bool writer, Clock::time_point start,
           Clock::duration period, Clock::duration write_every, Clock::time_point until,
           const std::vector<Kind>& kinds, BatchSource& batches, std::size_t& next_batch,
           common::TraceRecorder* trace, ConnLog& log) {
  if (!conn.alive) return;
  const bool open = period > Clock::duration::zero();
  Clock::time_point prev_done = Clock::now();
  Clock::time_point next_write = start + write_every;
  for (std::size_t i = 0;; ++i) {
    const Clock::time_point scheduled =
        open ? start + period * static_cast<std::int64_t>(i) : Clock::now();
    if (scheduled >= until) break;
    if (open) std::this_thread::sleep_until(scheduled);
    const bool insert =
        writer && (open ? (i + 1) % kInsertEvery == 0 : scheduled >= next_write);
    Record rec;
    rec.open_loop = open;
    std::size_t batch = 0;
    std::string line;
    if (insert) {
      batch = next_batch++;
      next_write += write_every;
      line = insert_line(batches.batch(batch));
      rec.kind = kInsert;
    } else {
      rec.kind = static_cast<std::uint8_t>((i + index) % kinds.size());
      line = kinds[rec.kind].line;
    }
    const Clock::time_point sent = Clock::now();
    std::optional<std::string> response;
    {
      common::ScopedSpan span(trace, insert ? "server.insert" : "server.query", "bench");
      response = conn.client.request(line);
    }
    const Clock::time_point done = Clock::now();
    ++log.attempted;
    if (!response) {
      ++(conn.client.timed_out() ? log.timeouts : log.errors);
      conn.alive = false;  // a late reply would desync request and response
      return;
    }
    if (!replied_ok(response)) {
      ++log.errors;
      continue;
    }
    read_reply(*response, rec);
    rec.sched_ms = std::chrono::duration<double, std::milli>(done - scheduled).count();
    rec.rtt_ms = std::chrono::duration<double, std::milli>(done - sent).count();
    if (open) {
      rec.lag_ms =
          std::chrono::duration<double, std::milli>(sent - std::max(scheduled, prev_done)).count();
    }
    rec.at_s = seconds_between(start, done);
    if (insert) log.inserts.emplace(rec.version, batch);
    log.records.push_back(rec);
    prev_done = done;
  }
}

/// Runs one phase on every connection, one thread each; returns its wall
/// (first scheduled send to last reply). `rate` is the open-loop load in
/// total (0 = closed loop).
double run_phase(std::vector<Conn>& conns, bool mixed, double rate, double seconds,
                 const std::vector<Kind>& kinds, BatchSource& batches, std::size_t& next_batch,
                 common::TraceRecorder* trace, std::vector<ConnLog>& logs) {
  const auto span = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const Clock::time_point until = start + span(seconds);
  const Clock::duration period =
      rate > 0.0 ? span(static_cast<double>(kConnections) / rate) : Clock::duration::zero();
  // The writer keeps the open loop's write cadence in both phases.
  const Clock::duration write_every =
      span(static_cast<double>(kInsertEvery * kConnections) / kMixedRate);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    // Stagger the connections across one period so arrivals interleave.
    const Clock::time_point conn_start =
        start + period * static_cast<std::int64_t>(c) / static_cast<std::int64_t>(conns.size());
    threads.emplace_back([&, c, conn_start] {
      drive(conns[c], c, mixed && c == 0, conn_start, period, write_every, until, kinds, batches,
            next_batch, trace, logs[c]);
    });
  }
  for (auto& t : threads) t.join();
  return seconds_between(start, Clock::now());
}

/// Re-executes the served queries at up to kReplayVersions versions on a
/// fresh engine, applying the recorded `writes` (version -> batch) in version
/// order. Returns the number of mismatching responses and counts the checked
/// ones.
std::uint64_t replay(const data::PointSet& dataset, BatchSource& batches,
                     const std::vector<Kind>& kinds,
                     const std::map<std::uint64_t, std::size_t>& writes,
                     const std::vector<Record>& records, std::uint64_t& checked) {
  std::map<std::uint64_t, std::vector<const Record*>> by_version;
  for (const Record& r : records) {
    if (r.kind != kInsert) by_version[r.version].push_back(&r);
  }
  std::set<std::uint64_t> sampled;
  if (!by_version.empty()) {
    std::vector<std::uint64_t> versions;
    for (const auto& [v, served] : by_version) versions.push_back(v);
    for (std::size_t i = 0; i < kReplayVersions; ++i) {
      sampled.insert(versions[i * (versions.size() - 1) / (kReplayVersions - 1)]);
    }
  }
  service::QueryEngine engine(dataset, engine_options());
  std::uint64_t mismatches = 0;
  const auto verify = [&](std::uint64_t version) {
    if (sampled.count(version) == 0) return;
    std::map<std::uint8_t, std::uint64_t> expected;
    for (const Record* r : by_version[version]) {
      auto it = expected.find(r->kind);
      if (it == expected.end()) {
        const service::Query& q = kinds[r->kind].query;
        const std::string line = server::result_line(q, engine.execute(q));
        it = expected.emplace(r->kind, fnv1a(strip_metrics(line))).first;
      }
      ++checked;
      if (it->second != r->payload_hash) ++mismatches;
    }
  };
  verify(0);
  for (const auto& [version, batch] : writes) {
    const std::uint64_t got = engine.apply_batch(mutation(batches.batch(batch))).snapshot->version;
    if (got != version) {
      std::cerr << "skybench: replay version drift (" << got << " != " << version << ")\n";
      return mismatches + 1;
    }
    verify(version);
  }
  return mismatches;
}

double latency_quantile(const std::vector<Record>& records, double q) {
  std::vector<double> v;
  v.reserve(records.size());
  for (const Record& r : records) v.push_back(r.sched_ms);
  return quantile(v, q);
}

/// Closed-loop goodput: replies within kGoodputLimitMs in each full 1-s
/// window of the phase (by reply time), median over the windows, so one
/// stalled second moves one window rather than the run's figure. `windows`
/// receives the per-window figures. Phases shorter than a second fall back
/// to the whole-phase rate.
double goodput(const std::vector<Record>& records, double phase_s, double wall_s,
               std::vector<double>& windows) {
  windows.assign(static_cast<std::size_t>(phase_s), 0.0);
  double good = 0.0;
  for (const Record& r : records) {
    if (r.rtt_ms > kGoodputLimitMs) continue;
    good += 1.0;
    const auto w = static_cast<std::size_t>(r.at_s);
    if (w < windows.size()) windows[w] += 1.0;
  }
  return windows.empty() ? good / wall_s : median(windows);
}

/// The cold path, probed after the timed phases of a traced run: kProbes
/// times, one write, then every query kind once, so each kind misses the
/// result cache and the engine recomputes it.
void probe_cold_path(Conn& conn, const std::vector<Kind>& kinds, BatchSource& batches,
                     std::size_t& next_batch, ConnLog& log) {
  constexpr int kProbes = 5;
  const auto send = [&](std::uint8_t kind, const std::string& line) {
    Record rec;
    rec.kind = kind;
    const Clock::time_point sent = Clock::now();
    const std::optional<std::string> response = conn.client.request(line);
    ++log.attempted;
    if (!replied_ok(response)) {
      ++log.errors;
      conn.alive = response.has_value();
      return false;
    }
    rec.rtt_ms = std::chrono::duration<double, std::milli>(Clock::now() - sent).count();
    read_reply(*response, rec);
    log.records.push_back(rec);
    return true;
  };
  for (int p = 0; p < kProbes && conn.alive; ++p) {
    const std::size_t batch = next_batch++;
    if (!send(kInsert, insert_line(batches.batch(batch)))) continue;
    log.inserts.emplace(log.records.back().version, batch);
    for (std::size_t k = 0; k < kinds.size() && conn.alive; ++k) {
      send(static_cast<std::uint8_t>(k), kinds[k].line);
    }
  }
}

}  // namespace

int prepare_serve(const Args& args) {
  data::write_csv_file(args.dir + "/points.csv",
                       sample_points(kPopulation, kRows, kDim, args.seed));
  return 0;
}

int run_serve(const Args& args, Report& report) {
  const bool mixed = args.workload == "serve-mixed";
  const std::string csv = args.dir + "/points.csv";
  const std::vector<Kind> kinds = query_kinds();
  BatchSource batches(args.seed);

  // ---- Set-up, kSetups times: engine build, server start, warm-up. The
  // last one stays up for the timed phases. ----
  std::vector<double> setups;
  Service svc;
  for (int i = 0; i < kSetups; ++i) {
    svc.srv.reset();  // the server goes before the engine it serves
    svc.engine.reset();
    svc = start_service(csv, mixed, batches, kinds);
    setups.push_back(svc.setup_s);
  }
  // The paper's clock for the resident set: the full-skyline job the engine
  // runs on a cold skyline query, simulated on an 8-server cluster.
  const data::PointSet dataset = data::normalize_min_max(data::read_csv_file(csv));
  const double sim_s = [&] {
    mr::ClusterModel model;
    model.servers = engine_options().config.servers;
    return core::run_mr_skyline(dataset, engine_options().config).simulate(model).total_seconds();
  }();
  reset_peak_rss();

  // Connect and warm every connection before the first timed phase.
  std::vector<Conn> conns(kConnections);
  std::uint64_t sheds = 0;
  for (std::size_t c = 0; c < kConnections; ++c) {
    server::BackoffOptions backoff;
    backoff.jitter_seed = 0x5EED + c;
    const auto admitted =
        conns[c].client.connect_with_backoff("127.0.0.1", svc.srv->port(), backoff);
    sheds += admitted.sheds;
    MRSKY_REQUIRE(admitted.connected, "load connection was not admitted");
    conns[c].client.set_recv_timeout_ms(kRecvTimeoutMs);
    for (const Kind& k : kinds) {
      MRSKY_REQUIRE(replied_ok(conns[c].client.request(k.line)), "warm-up query failed: " + k.line);
    }
  }

  const double rate = mixed ? kMixedRate : kReadRate;
  const double open_s = args.seconds * kOpenShare;
  const double closed_s = args.seconds - open_s;
  std::size_t next_batch = mixed ? 1 : 0;  // batch 0 was the set-up write
  std::vector<ConnLog> open_logs(kConnections), closed_logs(kConnections),
      traced_logs(kConnections), probe_logs(1);
  common::TraceRecorder recorder;

  const double open_wall = run_phase(conns, mixed, rate, open_s, kinds, batches, next_batch,
                                     args.trace ? &recorder : nullptr, open_logs);
  double closed_wall = 0.0, traced_wall = 0.0;
  if (!args.trace) {
    closed_wall =
        run_phase(conns, mixed, 0.0, closed_s, kinds, batches, next_batch, nullptr, closed_logs);
  } else {
    closed_wall = run_phase(conns, mixed, 0.0, closed_s / 2, kinds, batches, next_batch, nullptr,
                            closed_logs);
    traced_wall = run_phase(conns, mixed, 0.0, closed_s / 2, kinds, batches, next_batch,
                            &recorder, traced_logs);
    probe_cold_path(conns[0], kinds, batches, next_batch, probe_logs[0]);
  }
  for (Conn& c : conns) {
    if (c.alive) (void)c.client.request("quit");
  }
  const double rss = peak_rss_mb();
  const server::SkylineServer::Stats server_stats = svc.srv->stats();
  svc.srv->stop();

  std::uint64_t errors = 0;
  sheds += server_stats.shed;
  std::map<std::uint64_t, std::size_t> writes;  // version -> batch
  if (mixed) writes.emplace(1, 0);              // the set-up write
  std::vector<Record> all;
  const auto gather = [&](const std::vector<ConnLog>& logs) {
    std::vector<Record> records;
    for (const ConnLog& log : logs) {
      report.attempt(log.attempted);
      report.fail(log.errors + log.timeouts);
      errors += log.errors + log.timeouts;
      writes.insert(log.inserts.begin(), log.inserts.end());
      records.insert(records.end(), log.records.begin(), log.records.end());
    }
    all.insert(all.end(), records.begin(), records.end());
    return records;
  };
  const std::vector<Record> open_records = gather(open_logs);
  const std::vector<Record> closed_records = gather(closed_logs);
  const std::vector<Record> traced_records = gather(traced_logs);
  gather(probe_logs);

  std::uint64_t checked = 0;
  const std::uint64_t mismatches = replay(dataset, batches, kinds, writes, all, checked);
  report.fail(mismatches);
  report.info("replay_checked", static_cast<double>(checked));
  report.info("replay_mismatches", static_cast<double>(mismatches));
  if (checked == 0) report.gate_failed("replay checked no response");

  report.info("open_requests", static_cast<double>(open_records.size()));
  report.info("closed_requests", static_cast<double>(closed_records.size()));

  if (!args.trace) {
    report.metric("setup_s", median(setups));
    report.metric("wall_s", open_wall);
    report.metric("sim_s", sim_s);
    std::vector<double> windows;
    report.metric("goodput_rps", goodput(closed_records, closed_s, closed_wall, windows));
    report.info("goodput_windows", windows);
    report.metric("peak_rss_mb", rss);
    return 0;
  }

  // ---- Per-layer figures over every phase of the traced run. ----
  report.metric("client.p50_ms", latency_quantile(open_records, 0.50));
  report.metric("client.p99_ms", latency_quantile(open_records, 0.99));
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    std::vector<double> miss;
    for (const Record& r : all) {
      if (r.kind == k && !r.cache_hit) miss.push_back(r.engine_ms);
    }
    report.metric("service.miss_ms." + service::query_kind(kinds[k].query), median(miss));
  }
  std::vector<double> write_ms, overhead, lag;
  double queries = 0, hits = 0, bytes = 0;
  for (const Record& r : all) {
    if (r.kind == kInsert) {
      write_ms.push_back(r.rtt_ms);
      continue;
    }
    queries += 1;
    hits += r.cache_hit ? 1 : 0;
    bytes += static_cast<double>(r.bytes);
    overhead.push_back(r.rtt_ms - r.engine_ms);
    if (r.open_loop) lag.push_back(r.lag_ms);
  }
  report.metric("service.write_ms", median(write_ms));
  report.metric("service.hit_frac", queries > 0 ? hits / queries : 0.0);
  report.metric("server.overhead_ms.p50", quantile(overhead, 0.50));
  report.metric("server.overhead_ms.p99", quantile(overhead, 0.99));
  report.metric("server.resp_bytes", queries > 0 ? bytes / queries : 0.0);
  report.metric("server.shed", static_cast<double>(sheds));
  report.metric("server.errors", static_cast<double>(errors));
  report.metric("client.lag_ms.p99", quantile(lag, 0.99));
  // Closed-loop time per request, traced over untraced.
  const double untraced_rate = static_cast<double>(closed_records.size()) / closed_wall;
  const double traced_rate = static_cast<double>(traced_records.size()) / traced_wall;
  report.metric("trace.overhead_frac", traced_rate > 0 ? untraced_rate / traced_rate - 1.0 : 0.0);
  recorder.write_chrome_json(args.dir + "/trace.json");
  return 0;
}

}  // namespace skybench
