// perfbench_harness — runs one workload of the proteus-vec benchmark and
// prints its metrics; the last line of stdout is the JSON result.
//
//   perfbench_harness --workload bulk|serve-warm|serve-cold --seed N
//                     --seconds S --trace 0|1 --repo DIR --proteusd PATH
//                     [--trace-out FILE]
//
// Exit status: 0 when every checked output was correct, 1 when some
// output was wrong (the result line is still printed), 2 on bad usage or
// when the workload could not run at all (no result line).
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench_harness --workload bulk|serve-warm|serve-cold"
               " --seed N --seconds S --trace 0|1 --repo DIR --proteusd PATH"
               " [--trace-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--repo") {
      opt.repo_dir = value;
    } else if (flag == "--proteusd") {
      opt.proteusd = value;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || opt.repo_dir.empty() || opt.proteusd.empty() ||
      !(opt.workload == "bulk" || opt.workload == "serve-warm" ||
        opt.workload == "serve-cold")) {
    return usage();
  }

  perfbench::Result res;
  try {
    if (opt.trace) {
      res = perfbench::run_layers(opt);
    } else if (opt.workload == "bulk") {
      res = perfbench::run_bulk(opt);
    } else if (opt.workload == "serve-warm") {
      res = perfbench::run_serve_warm(opt);
    } else {
      res = perfbench::run_serve_cold(opt);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 2;
  }

  std::cout << "# host " << perfbench::host_fingerprint() << "\n";
  for (const std::string& line : res.notes) std::cout << "# " << line << "\n";
  std::cout << "# fail_share "
            << perfbench::number_text(
                   res.attempted == 0
                       ? 0.0
                       : static_cast<double>(res.failed) /
                             static_cast<double>(res.attempted))
            << " (" << res.failed << " of " << res.attempted << " failed)\n";
  for (const perfbench::Metric& m : res.metrics) {
    std::cout << m.name << " " << perfbench::number_text(m.value) << " "
              << m.unit << "\n";
  }
  std::cout << "{\"correct\": " << (res.correct ? "true" : "false")
            << ", \"attempted\": " << res.attempted
            << ", \"failed\": " << res.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const perfbench::Metric& m = res.metrics[i];
    std::cout << (i == 0 ? "" : ", ") << "\"" << m.name
              << "\": {\"value\": " << perfbench::number_text(m.value)
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return res.correct ? 0 : 1;
}
