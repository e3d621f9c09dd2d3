// skybench — the repository benchmark's measuring program.
//
//   skybench prepare --workload batch-csv --seed 7 --dir WORK
//   skybench run --workload batch-csv --seed 7 --seconds 10 --trace 0 --dir WORK
//
// `prepare` writes the workload's generated inputs (and the batch oracle)
// into WORK; it is not timed. `run` sets the workload up, measures it for
// `--seconds`, checks every output and prints one JSON line with the
// metrics. skybench/run.py builds this program and drives both steps.
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"
#include "src/common/cli.hpp"

int main(int argc, char** argv) {
  using namespace skybench;
  if (argc < 2) {
    std::cerr << "usage: skybench <prepare|run> --workload W --seed N --seconds S --trace 0|1 "
                 "--dir WORK\n";
    return 2;
  }
  try {
    const mrsky::common::CliArgs cli(argc - 1, argv + 1);
    Args args;
    args.command = argv[1];
    args.workload = cli.get_string("workload", "");
    args.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    args.seconds = cli.get_double("seconds", 10.0);
    args.trace = cli.get_int("trace", 0) != 0;
    args.dir = cli.get_string("dir", "");
    if (args.dir.empty() || args.seconds <= 0.0) {
      std::cerr << "skybench: --dir is required and --seconds must be positive\n";
      return 2;
    }
    const bool batch = args.workload == "batch-csv" || args.workload == "batch-mrb";
    const bool serve = args.workload == "serve-read" || args.workload == "serve-mixed";
    if (!batch && !serve) {
      std::cerr << "skybench: unknown workload '" << args.workload << "'\n";
      return 2;
    }
    if (args.command == "prepare") return batch ? prepare_batch(args) : prepare_serve(args);
    if (args.command != "run") {
      std::cerr << "skybench: unknown command '" << args.command << "'\n";
      return 2;
    }
    Report report;
    report.info("build_type", SKYBENCH_BUILD_TYPE);
    report.info("mrsky_native", SKYBENCH_NATIVE ? "ON" : "OFF");
    report.info("compiler", SKYBENCH_COMPILER);
    const int rc = batch ? run_batch(args, report) : run_serve(args, report);
    std::cout << report.to_json() << std::endl;
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "skybench: " << e.what() << "\n";
    return 1;
  }
}
