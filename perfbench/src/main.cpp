// perfbench entry point: argument parsing and the one-line JSON result.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Exit status 0 with the result as the last stdout line; anything else
// (bad arguments, a workload that could not run) exits 2 with a message
// on stderr and no result line.
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Args;

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (argc % 2 == 0) throw std::invalid_argument("arguments come in pairs");
  if (args.workload.empty()) throw std::invalid_argument("--workload missing");
  if (!(args.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const perfbench::Result res = perfbench::run_workload(args);
    namespace json = perfbench::json;
    json::Value metrics = json::Value::object();
    for (const perfbench::Metric& m : res.metrics) {
      if (!std::isfinite(m.value)) {
        throw std::runtime_error("metric " + m.name + " is not finite");
      }
      json::Value entry = json::Value::object();
      entry.set("value", m.value);
      entry.set("unit", m.unit);
      metrics.set(m.name, std::move(entry));
    }
    json::Value out = json::Value::object();
    out.set("correct", res.sound && res.tally.failed == 0);
    out.set("attempted", res.tally.attempted);
    out.set("failed", res.tally.failed);
    out.set("metrics", std::move(metrics));
    std::cout << out.dump_string(0) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
