// Benchmark harness binary: runs ONE workload once in this process and
// prints one JSON object on stdout. run.py starts one process per run so
// the process's peak RSS belongs to that run alone.
//
//   perfbench_harness --workload <name> --seed <n> [--traced]
//   perfbench_harness --layer-calls
//
// Exit status: 0 when every correctness check passed, 1 when a check
// failed (the JSON still lists the failures), 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hpp"
#include "perfbench.hpp"

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string object(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += quoted(k) + ": " + number(v);
  }
  return out + "}";
}

int usage() {
  std::cerr << "usage: perfbench_harness --workload <name> --seed <n> "
               "[--traced]\n       perfbench_harness --layer-calls\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  bool layer_calls = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload" && i + 1 < argc) {
      cfg.workload = argv[++i];
    } else if (a == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      cfg.seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') return usage();
      have_seed = true;
    } else if (a == "--traced") {
      cfg.traced = true;
    } else if (a == "--layer-calls") {
      layer_calls = true;
    } else {
      return usage();
    }
  }

  if (layer_calls) {
    std::cout << "{\"layer_calls\": " << object(perfbench::measure_layer_calls())
              << "}" << std::endl;
    return 0;
  }
  if (!have_seed) return usage();

  perfbench::RunResult r;
  if (!perfbench::run_workload(cfg, r)) {
    std::cerr << "unknown workload '" << cfg.workload << "'\n";
    return usage();
  }
  const redbud::obs::ProcessMem mem = redbud::bench::read_proc_mem();

  std::ostringstream out;
  out << "{\"workload\": " << quoted(cfg.workload)
      << ", \"seed\": " << cfg.seed
      << ", \"traced\": " << (cfg.traced ? "true" : "false")
      << ", \"setup_s\": " << number(r.setup_s)
      << ", \"wall_s\": " << number(r.wall_s)
      << ", \"peak_rss_mib\": " << number(double(mem.vm_hwm_kb) / 1024.0)
      << ", \"sim_ops_per_s\": " << number(r.sim_ops_per_s)
      << ", \"sim_op_p99_ms\": " << number(r.sim_op_p99_ms)
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"sim\": " << object(r.sim) << ", \"host\": " << object(r.host)
      << ", \"trace\": " << object(r.trace)
      << ", \"run\": {\"kernel\": " << quoted(r.kernel)
      << ", \"kernel_workers\": " << r.kernel_workers
      << ", \"sim_run_s\": " << number(r.sim_run_s)
      << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
      << ", \"compiler\": " << quoted(PERFBENCH_COMPILER) << "}"
      << ", \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    out << (i ? ", " : "") << quoted(r.failures[i]);
  }
  out << "]}";
  std::cout << out.str() << std::endl;
  return r.failures.empty() ? 0 : 1;
}
