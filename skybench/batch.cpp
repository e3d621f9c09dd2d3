// Batch workloads: one `mrsky skyline` job per operation.
//
//   batch-csv  read_csv_file -> normalize_min_max -> run_mr_skyline -> write_csv_file
//   batch-mrb  BlockStoreSource (Z-ordered .mrb) -> run_mr_skyline -> write_csv_file
//
// Every job runs scheme=auto for an 8-server cluster on a shared 4-lane pool
// (ExecutionMode::kThreads) and its skyline, sorted by id, must be bitwise
// equal to the oracle that `prepare` computed with skyline::sfs_skyline from
// the same generated points. Both formats are checked against that one
// oracle, so a batch-csv skyline equal to it is also equal to batch-mrb's.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>

#include "harness.hpp"
#include "src/common/thread_pool.hpp"
#include "src/common/trace.hpp"
#include "src/core/mr_skyline.hpp"
#include "src/core/optimality.hpp"
#include "src/dataset/block_store.hpp"
#include "src/dataset/io.hpp"
#include "src/dataset/normalize.hpp"
#include "src/dataset/source.hpp"
#include "src/mapreduce/cluster.hpp"
#include "src/skyline/algorithms.hpp"

namespace skybench {

namespace {

using namespace mrsky;

constexpr std::size_t kPopulation = 330000;
constexpr std::size_t kRows = 300000;
constexpr std::size_t kDim = 9;
constexpr std::size_t kLanes = 4;
constexpr std::size_t kServers = 8;
constexpr int kConversions = 3;  ///< .mrb conversions timed in set-up (median)

struct Paths {
  std::string csv, mrb, oracle, out;
  explicit Paths(const std::string& dir)
      : csv(dir + "/points.csv"),
        mrb(dir + "/points.mrb"),
        oracle(dir + "/oracle.csv"),
        out(dir + "/skyline.csv") {}
};

data::PointSet sorted_by_id(const data::PointSet& ps) {
  std::vector<std::size_t> order(ps.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return ps.id(a) < ps.id(b); });
  return ps.select(order);
}

bool bitwise_equal(const data::PointSet& a, const data::PointSet& b) {
  if (a.size() != b.size() || a.dim() != b.dim()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.id(i) != b.id(i)) return false;
    const auto pa = a.point(i);
    const auto pb = b.point(i);
    if (std::memcmp(pa.data(), pb.data(), pa.size_bytes()) != 0) return false;
  }
  return true;
}

/// The .mrb staging `mrsky convert --normalize true --order zorder` performs.
void convert_to_mrb(const Paths& paths) {
  const data::PointSet ps = data::normalize_min_max(data::read_csv_file(paths.csv));
  data::write_block_store(paths.mrb, ps.select(data::zorder_permutation(ps)));
}

/// One job: its wall, the layer times the benchmark measured around its own
/// calls, and the pipeline's result.
struct Job {
  double wall_s = 0.0;
  double csv_read_s = 0.0;
  double normalize_s = 0.0;
  double open_s = 0.0;
  double pipeline_s = 0.0;
  double write_s = 0.0;
  core::MRSkylineResult result;
};

Job run_job(bool csv, const Paths& paths, common::ThreadPool* pool,
            common::TraceRecorder* trace) {
  core::MRSkylineConfig config;
  config.scheme = part::Scheme::kAuto;
  config.servers = kServers;
  if (pool != nullptr) {
    config.run_options.mode = mr::ExecutionMode::kThreads;
    config.run_options.pool = pool;
  }
  config.run_options.trace = trace;

  Job job;
  const auto start = Clock::now();
  auto mark = start;
  const auto lap = [&mark] {
    const auto now = Clock::now();
    const double s = seconds_between(mark, now);
    mark = now;
    return s;
  };
  std::unique_ptr<data::DatasetSource> source;
  if (csv) {
    data::PointSet ps(1);
    {
      common::ScopedSpan span(trace, "dataset.csv_read", "bench");
      ps = data::read_csv_file(paths.csv);
    }
    job.csv_read_s = lap();
    {
      common::ScopedSpan span(trace, "dataset.normalize", "bench");
      ps = data::normalize_min_max(ps);
    }
    job.normalize_s = lap();
    source = std::make_unique<data::PointSetSource>(std::move(ps));
  } else {
    common::ScopedSpan span(trace, "dataset.open", "bench");
    source = std::make_unique<data::BlockStoreSource>(paths.mrb);
  }
  job.open_s = lap();
  {
    common::ScopedSpan span(trace, "core.run_mr_skyline", "bench");
    job.result = core::run_mr_skyline(*source, config);
  }
  job.pipeline_s = lap();
  {
    common::ScopedSpan span(trace, "dataset.write", "bench");
    data::write_csv_file(paths.out, job.result.skyline);
    source.reset();
  }
  job.write_s = lap();
  job.wall_s = seconds_between(start, mark);
  return job;
}

/// The job on the paper's clock: an 8-server simulated cluster.
mr::PhaseTimes simulate(const core::MRSkylineResult& result) {
  mr::ClusterModel model;
  model.servers = kServers;
  return result.simulate(model);
}

/// Phase extent (first start to last end, ms) of the task spans named
/// `task` that belong to job `job`.
double phase_extent_ms(const std::vector<common::TraceSpan>& spans, std::uint64_t first_span,
                       const std::string& task, const std::string& job) {
  std::int64_t lo = INT64_MAX, hi = INT64_MIN;
  for (const auto& s : spans) {
    if (s.id < first_span || s.name != task) continue;
    const common::TraceArg* arg = s.find_arg("job");
    if (arg == nullptr || arg->value != job) continue;
    lo = std::min(lo, s.start_ns);
    hi = std::max(hi, s.end_ns);
  }
  return hi > lo ? static_cast<double>(hi - lo) / 1e6 : 0.0;
}

/// Per-layer figures of one traced job, by metric name. Spans with id >=
/// `first_span` belong to this job.
std::map<std::string, double> layer_figures(const Job& job, bool csv, std::uint64_t csv_bytes,
                                            const std::vector<common::TraceSpan>& spans,
                                            std::uint64_t first_span) {
  const core::MRSkylineResult& r = job.result;
  const mr::JobMetrics& j1 = r.partition_job;
  std::map<std::string, double> f;
  f["dataset.csv_read_ms"] = job.csv_read_s * 1e3;
  f["dataset.csv_mb_s"] =
      csv && job.csv_read_s > 0.0 ? static_cast<double>(csv_bytes) / 1e6 / job.csv_read_s : 0.0;
  f["dataset.normalize_ms"] = job.normalize_s * 1e3;
  f["dataset.write_ms"] = job.write_s * 1e3;
  f["dataset.bytes_read"] = static_cast<double>(j1.bytes_read);
  const double block_bytes = static_cast<double>(j1.bytes_read + j1.bytes_pruned);
  f["dataset.bytes_pruned_frac"] =
      block_bytes > 0.0 ? static_cast<double>(j1.bytes_pruned) / block_bytes : 0.0;

  f["core.pipeline_ms"] = job.pipeline_s * 1e3;
  f["core.plan_ms"] = r.plan.planning_seconds * 1e3;
  const double unplanned_s = r.wall_seconds - r.plan.planning_seconds;
  f["core.plan_pred_ratio"] = unplanned_s > 0.0 ? r.plan.predicted_seconds / unplanned_s : 0.0;

  const auto& sizes = r.partition_report.sizes;
  const auto points = std::accumulate(sizes.begin(), sizes.end(), std::size_t{0});
  const double mean_size =
      sizes.empty() ? 0.0 : static_cast<double>(points) / static_cast<double>(sizes.size());
  f["partition.balance_cv"] = r.partition_report.balance_cv;
  f["partition.max_over_mean"] =
      mean_size > 0.0 ? static_cast<double>(r.partition_report.largest) / mean_size : 0.0;

  // Phase walls from the engine's own spans (RunOptions::trace).
  f["mapreduce.map_ms"] = phase_extent_ms(spans, first_span, "map", j1.job_name);
  f["mapreduce.shuffle_ms"] = static_cast<double>(j1.shuffle_ns) / 1e6;
  f["mapreduce.reduce_ms"] = phase_extent_ms(spans, first_span, "reduce", j1.job_name);
  std::int64_t reduce_max_ns = 0;
  for (const auto& t : j1.reduce_tasks) reduce_max_ns = std::max(reduce_max_ns, t.wall_ns);
  f["mapreduce.reduce_max_ms"] = static_cast<double>(reduce_max_ns) / 1e6;

  // Named layers, each a disjoint interval of the thread that ran the job.
  double named_ms = (job.csv_read_s + job.normalize_s + job.open_s + job.write_s) * 1e3;
  double merge_ms = 0.0;
  for (const auto& s : spans) {
    if (s.id < first_span) continue;
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    if (s.category == "job") {
      named_ms += ms;
      if (s.name != j1.job_name) merge_ms += ms;
    } else if (s.name == "adaptive-plan" || s.name == "partition-fit" ||
               s.name == "block-prune") {
      named_ms += ms;
    }
  }
  f["mapreduce.merge_ms"] = merge_ms;
  f["core.attributed_frac"] = job.wall_s > 0.0 ? named_ms / 1e3 / job.wall_s : 0.0;

  std::int64_t task_ns = 0;
  std::uint64_t shuffle_bytes = j1.shuffle_bytes;
  std::uint64_t dominance_tests = 0;
  const auto add_job = [&](const mr::JobMetrics& m) {
    for (const auto& t : m.map_tasks) task_ns += t.wall_ns;
    for (const auto& t : m.reduce_tasks) {
      task_ns += t.wall_ns;
      dominance_tests += t.work_units;
    }
  };
  add_job(j1);
  for (const auto& round : r.merge_rounds) {
    add_job(round);
    shuffle_bytes += round.shuffle_bytes;
  }
  f["mapreduce.task_ms_sum"] = static_cast<double>(task_ns) / 1e6;
  f["mapreduce.merge_rounds"] = static_cast<double>(r.merge_rounds.size());
  f["mapreduce.shuffle_bytes"] = static_cast<double>(shuffle_bytes);
  const mr::PhaseTimes sim = simulate(r);
  f["mapreduce.sim_map_s"] = sim.map_seconds;
  f["mapreduce.sim_reduce_s"] = sim.reduce_seconds;

  const core::OptimalityReport opt = core::local_skyline_optimality(r.local_skylines, r.skyline);
  f["skyline.dominance_tests"] = static_cast<double>(dominance_tests);
  f["skyline.local_points"] = static_cast<double>(opt.local_total);
  f["skyline.optimality"] = opt.mean_optimality;
  return f;
}

}  // namespace

int prepare_batch(const Args& args) {
  const Paths paths(args.dir);
  data::write_csv_file(paths.csv, sample_points(kPopulation, kRows, kDim, args.seed));
  // The oracle: a single-threaded SFS skyline of exactly what a job reads.
  const data::PointSet normalized = data::normalize_min_max(data::read_csv_file(paths.csv));
  data::write_csv_file(paths.oracle, sorted_by_id(skyline::sfs_skyline(normalized)));
  return 0;
}

int run_batch(const Args& args, Report& report) {
  const bool csv = args.workload == "batch-csv";
  const Paths paths(args.dir);
  const data::PointSet oracle = data::read_csv_file(paths.oracle);
  const auto csv_bytes = static_cast<std::uint64_t>(std::filesystem::file_size(paths.csv));
  report.info("rows", static_cast<double>(kRows));
  report.info("dim", static_cast<double>(kDim));
  report.info("oracle_points", static_cast<double>(oracle.size()));

  std::uint64_t job_count = 0;
  const auto check = [&](const Job& job) {
    report.attempt();
    ++job_count;
    if (!bitwise_equal(sorted_by_id(job.result.skyline), oracle)) {
      report.fail();
      std::cerr << "skybench: job skyline differs from the oracle\n";
    }
  };

  // ---- Set-up: the staging the input format needs (.mrb: the conversion,
  // median of several), then one cold warm-up job. ----
  common::ThreadPool pool(kLanes);
  double setup_s = 0.0;
  if (!csv) {
    std::vector<double> conversions;
    for (int i = 0; i < kConversions; ++i) {
      const auto t = Clock::now();
      convert_to_mrb(paths);
      conversions.push_back(seconds_between(t, Clock::now()));
    }
    setup_s += median(conversions);
  }
  {
    const Job warm = run_job(csv, paths, &pool, nullptr);
    check(warm);
    setup_s += warm.wall_s;
  }
  reset_peak_rss();

  const auto deadline = Clock::now() + std::chrono::duration<double>(args.seconds);
  if (!args.trace) {
    std::vector<double> walls, sims;
    while (walls.size() < 3 || Clock::now() < deadline) {
      const Job job = run_job(csv, paths, &pool, nullptr);
      walls.push_back(job.wall_s);
      sims.push_back(simulate(job.result).total_seconds());
      check(job);
    }
    report.metric("peak_rss_mb", peak_rss_mb());
    report.metric("setup_s", setup_s);
    report.metric("wall_s", median(walls));
    report.metric("sim_s", median(sims));
    report.metric("goodput_rps", static_cast<double>(walls.size()) /
                                     std::accumulate(walls.begin(), walls.end(), 0.0));
    report.info("job_walls_s", walls);
  } else {
    // Per-layer run: rounds of (untraced 4-lane, traced 4-lane, sequential)
    // jobs, so tracing overhead and parallel speedup come from one process.
    common::TraceRecorder recorder;
    std::vector<double> untraced, traced, sequential;
    std::map<std::string, std::vector<double>> layers;
    while (traced.size() < 2 || Clock::now() < deadline) {
      const Job plain = run_job(csv, paths, &pool, nullptr);
      check(plain);
      untraced.push_back(plain.wall_s);

      const std::uint64_t first_span = recorder.spans().size() + 1;
      const Job job = run_job(csv, paths, &pool, &recorder);
      check(job);
      traced.push_back(job.wall_s);
      for (const auto& [name, value] :
           layer_figures(job, csv, csv_bytes, recorder.spans(), first_span)) {
        layers[name].push_back(value);
      }

      const Job seq = run_job(csv, paths, nullptr, nullptr);
      check(seq);
      sequential.push_back(seq.wall_s);
    }
    for (const auto& [name, values] : layers) {
      report.metric(name, median(values));
    }
    report.metric("mapreduce.par_speedup", median(sequential) / median(untraced));
    report.metric("trace.overhead_frac", median(traced) / median(untraced) - 1.0);
    report.info("jobs", static_cast<double>(job_count));
    recorder.write_chrome_json(args.dir + "/trace.json");
  }

  // The written skyline file must read back as the oracle too.
  if (!bitwise_equal(sorted_by_id(data::read_csv_file(paths.out)), oracle)) {
    report.gate_failed("written skyline file differs from the oracle");
  }
  return 0;
}

}  // namespace skybench
