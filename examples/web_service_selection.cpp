// Web-service selection — the paper's motivating scenario (§I).
//
// A registry (UDDI) holds thousands of competing services measured on QoS
// attributes. A user wants the Pareto-optimal ("skyline") providers, and the
// registry is dynamic: new services keep arriving and must be folded into
// the skyline without recomputing from scratch (paper §II).
//
//   ./build/examples/web_service_selection [--services 20000] [--dim 5]
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "src/common/cli.hpp"
#include "src/dataset/qws.hpp"
#include "src/service/query_engine.hpp"

int main(int argc, char** argv) {
  using namespace mrsky;
  const common::CliArgs args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get_int("services", 20000));
  const auto dim = static_cast<std::size_t>(args.get_int("dim", 5));

  // A synthetic registry following the QWS attribute schema: natural units
  // for display, the cost-oriented copy for the skyline.
  data::QwsLikeGenerator generator(dim, /*seed=*/7);
  const auto& schema = generator.schema();
  const data::PointSet raw = generator.generate_raw(n);

  service::QueryEngineOptions options;
  options.config.scheme = part::Scheme::kAngular;
  options.config.servers = 8;
  service::QueryEngine registry(data::QwsLikeGenerator::orient(raw, schema), options);

  const data::PointSet skyline = registry.execute(service::SkylineQuery{}).points;
  std::cout << "registry: " << n << " services x " << dim << " QoS attributes\n"
            << "skyline:  " << skyline.size() << " Pareto-optimal services\n\n";

  // Skyline rows come back in ascending-id order; raw row i has id i.
  std::cout << "sample skyline services (natural units):\n";
  std::cout << "  " << std::left << std::setw(16) << "service";
  for (const auto& attr : schema) std::cout << std::setw(16) << attr.name;
  std::cout << "\n";
  for (std::size_t i = 0; i < skyline.size() && i < 5; ++i) {
    const data::PointId id = skyline.id(i);
    std::cout << "  " << std::setw(16) << ("service-" + std::to_string(id));
    for (double v : raw.point(id)) std::cout << std::setw(16) << v;
    std::cout << "\n";
  }

  // Dynamic registration: a clearly excellent service and a clearly poor one.
  std::vector<double> excellent;
  std::vector<double> poor;
  for (const auto& attr : schema) {
    excellent.push_back(attr.higher_is_better ? attr.max : attr.min);
    poor.push_back(attr.higher_is_better ? attr.min : attr.max);
  }
  auto register_service = [&](const std::vector<double>& qos) {
    data::PointSet row(dim);
    row.push_back(qos);
    service::MutationBatch batch;
    batch.inserts = data::QwsLikeGenerator::orient(row, schema);
    // An insert-only batch promotes no one, so any entry is the new service.
    return !registry.apply_batch(batch).delta.entered.empty();
  };
  std::cout << "\nregistering 'best-in-class' (optimal in every attribute)... "
            << (register_service(excellent) ? "joined the skyline" : "rejected") << "\n";
  std::cout << "registering 'worst-in-class' (worst in every attribute)...  "
            << (register_service(poor) ? "joined the skyline" : "rejected") << "\n";

  const service::QueryEngine::Stats stats = registry.stats();
  std::cout << "\nskyline size now " << registry.snapshot()->full_skyline->size() << ": "
            << stats.stream_entered << " entered, " << stats.stream_left << " left over "
            << stats.apply_batches << " registrations\n"
            << "(" << stats.pipeline_runs
            << " MapReduce run in total; registrations were maintained, not recomputed)\n";
  return 0;
}
