// harness.hpp — the workload entry points main.cpp dispatches to.
#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string repo_dir;   ///< checkout root (examples/programs lives here)
  std::string proteusd;   ///< path of the daemon binary under test
  std::string trace_out;  ///< where the traced run writes its spans
};

/// End-to-end runs (tracing off).
Result run_bulk(const Options& opt);
Result run_serve_warm(const Options& opt);
Result run_serve_cold(const Options& opt);

/// The traced per-layer run of one workload.
Result run_layers(const Options& opt);

}  // namespace perfbench
