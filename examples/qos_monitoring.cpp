// Continuous QoS monitoring — the dynamic side of the paper's §I.
//
// Service quality drifts; yesterday's skyline is stale. This example streams
// fresh measurements into a QueryEngine with a count window (last W
// observations only), then compresses the live skyline into an ε-Pareto
// shortlist for display. A mid-stream "incident" (every service's response
// time spikes) shows the window forgetting the good old days.
//
//   ./build/examples/qos_monitoring [--window 200] [--steps 1200]
#include <algorithm>
#include <iomanip>
#include <iostream>

#include "src/common/cli.hpp"
#include "src/common/rng.hpp"
#include "src/dataset/normalize.hpp"
#include "src/dataset/qws.hpp"
#include "src/service/query_engine.hpp"
#include "src/skyline/extensions.hpp"

int main(int argc, char** argv) {
  using namespace mrsky;
  const common::CliArgs args(argc, argv);
  const auto window = static_cast<std::size_t>(args.get_int("window", 200));
  const auto steps = static_cast<std::size_t>(args.get_int("steps", 1200));
  const std::size_t dim = 4;

  // Measurement stream: bootstrap-resampled from a QWS-like seed (the
  // paper's own dataset-extension recipe), with an incident at 60 %.
  data::QwsLikeGenerator seed_gen(dim, 67);
  const data::PointSet seed = seed_gen.generate_oriented(2000);
  data::BootstrapResampler sampler(seed, /*jitter=*/0.08);
  common::Rng rng(99);
  const std::size_t incident_at = steps * 6 / 10;
  auto measure = [&](std::size_t t) {
    data::PointSet one = sampler.generate(1, rng);
    std::vector<double> coords(one.point(0).begin(), one.point(0).end());
    if (t >= incident_at) {
      coords[0] = std::min(coords[0] * 4.0, 4989.0);  // response times spike 4x
    }
    data::PointSet row(dim);
    row.push_back(coords, static_cast<data::PointId>(t));
    return row;
  };

  // The engine needs a non-empty dataset: seed it with the first W
  // measurements, then stream the rest one insert at a time. The count
  // window evicts the oldest measurement once W are live.
  data::PointSet first(dim);
  for (std::size_t t = 0; t < window; ++t) {
    const data::PointSet row = measure(t);
    first.push_back(row.point(0), row.id(0));
  }
  service::QueryEngineOptions options;
  options.window_capacity = window;
  service::QueryEngine monitor(std::move(first), options);

  std::cout << "streaming " << steps << " measurements through a window of " << window
            << "\n\n   step | window skyline | eps-shortlist (eps=0.1)\n";
  for (std::size_t t = window; t <= steps; ++t) {
    if (t % (steps / 6) == 0) {
      const data::PointSet sky = monitor.execute(service::SkylineQuery{}).points;
      const auto shortlist = skyline::epsilon_pareto_cover(sky, 0.1);
      const bool incident = t > incident_at;
      std::cout << "  " << (incident ? "!" : " ") << std::setw(5) << t << " | "
                << std::setw(14) << sky.size() << " | " << shortlist.size()
                << (incident && t <= incident_at + steps / 6
                        ? "   <- incident: old fast services age out of the window"
                        : "")
                << "\n";
    }
    if (t < steps) (void)monitor.insert_batch(measure(t));
  }
  const service::QueryEngine::Stats stats = monitor.stats();
  std::cout << "\nskyline entries " << stats.stream_entered << ", exits " << stats.stream_left
            << " over " << stats.points_inserted << " inserts (" << stats.points_expired
            << " aged out of the window; no recompute)\n";
  return 0;
}
