// krsp_perfbench — one workload run of the end-to-end / per-layer
// benchmark (normally launched through perfbench/run.py, which builds it).
//
// Usage: krsp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                       [--corpus DIR] [--smoke]
//
// Prints JSON detail lines (host shape, tail percentiles, layer shares)
// and, as the last line, {"correct","attempted","failed","metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "server/wire.h"
#include "workloads.h"

namespace {

using perfbench::Args;
using perfbench::Report;
namespace wire = krsp::server::wire;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "krsp_perfbench: " << why
            << "\nusage: krsp_perfbench --workload corpus-lagrange|"
               "tight-cancel --seed N --seconds S --trace 0|1 "
               "[--corpus DIR] [--smoke]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--corpus") {
        args.corpus = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

std::string result_line(const Report& report) {
  wire::ObjectWriter metrics;
  for (const auto& m : report.metrics)
    metrics.raw(m.name, wire::ObjectWriter()
                            .field("value", m.value)
                            .field("unit", m.unit)
                            .done());
  return wire::ObjectWriter()
      .field("correct", report.correct)
      .field("attempted", report.attempted)
      .field("failed", report.failed)
      .raw("metrics", metrics.done())
      .done();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    Report report;
    if (args.workload == "corpus-lagrange") {
      report = perfbench::run_corpus_lagrange(args);
    } else if (args.workload == "tight-cancel") {
      report = perfbench::run_tight_cancel(args);
    } else {
      usage("unknown workload " + args.workload);
    }
    for (const auto& line : report.details) std::cout << line << '\n';
    std::cout << result_line(report) << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "krsp_perfbench: " << args.workload << ": " << e.what()
              << '\n';
    return 1;
  }
  return 0;
}
