// Repository benchmark driver.
//
//   perfbench --workload <train-cd0|serve-uniform|serve-stream> --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--git-sha SHA]
//             [--source-digest HEX]
//
// Runs one workload, checks its outputs, and prints every metric by name and
// unit. The last stdout line is the JSON result:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer set (a layer a workload does not exercise reads 0). A failed
// correctness check prints the violations to stderr and exits 1 with no
// result line. A self-describing record (and, when traced, a Chrome trace)
// is written under --out-dir.
#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "report.hpp"

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks the printed keys against it).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"cpu_ms_per_op", "ms"},
};

constexpr MetricDef kPerLayer[] = {
    {"graph.make_dataset_s", "s"},
    {"partition.libra_s", "s"},
    {"partition.build_s", "s"},
    {"partition.halo_plan_s", "s"},
    {"partition.replication_factor", "count"},
    {"kernels.lat_s", "s"},
    {"kernels.aggregate_s", "s"},
    {"nn.gemm_s", "s"},
    {"comm.rat_s", "s"},
    {"comm.halo_bytes_per_epoch", "B"},
    {"comm.allreduce_bytes_per_epoch", "B"},
    {"core.epoch_s", "s"},
    {"core.unattributed_s", "s"},
    {"core.lat_share", "ratio"},
    {"core.rat_share", "ratio"},
    {"core.unattributed_share", "ratio"},
    {"core.in_call_s", "s"},
    {"core.single_socket_epoch_s", "s"},
    {"core.speedup_vs_single_socket", "ratio"},
    {"serve.submit_us", "us"},
    {"serve.queue_ms", "ms"},
    {"serve.forward_ms", "ms"},
    {"serve.reply_ms", "ms"},
    {"serve.embed_lookup_ms", "ms"},
    {"sampling.stage_ms", "ms"},
    {"sampling.sample_us", "us"},
    {"serve.gather_us", "us"},
    {"serve.forward_batch_us", "us"},
    {"serve.mean_batch", "count"},
    {"serve.feature_cache_hit_rate", "ratio"},
    {"serve.embed_cache_hit_rate", "ratio"},
    {"serve.accounted_share", "ratio"},
    {"serve.closed_cpu_ms", "ms"},
    {"stream.publish_ms", "ms"},
    {"stream.repartition_ms", "ms"},
    {"stream.apply_ms", "ms"},
    {"stream.invalidate_ms", "ms"},
    {"stream.dirty_entries_per_delta", "count"},
    {"driver.p50_ms", "ms"},
    {"driver.p99_ms", "ms"},
    {"driver.max_rps", "1/s"},
    {"driver.late_mean_ms", "ms"},
    {"driver.late_max_ms", "ms"},
    {"trace_overhead", "ratio"},
    {"graph.self_s", "s"},
    {"partition.self_s", "s"},
    {"kernels.self_s", "s"},
    {"nn.self_s", "s"},
    {"core.self_s", "s"},
    {"sampling.self_s", "s"},
    {"serve.self_s", "s"},
    {"stream.self_s", "s"},
    {"driver.self_s", "s"},
};

std::string num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string counts_json(const Counts& c) {
  return "{\"attempted\": " + std::to_string(c.attempted) +
         ", \"succeeded\": " + std::to_string(c.succeeded) +
         ", \"failed\": " + std::to_string(c.failed) + "}";
}

/// Cumulative CPU ticks of all CPUs from /proc/stat (Linux; zeros elsewhere).
struct CpuTicks {
  double busy = 0;   // user + nice + system + irq + softirq
  double steal = 0;  // runnable, but the hypervisor ran something else
};

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0, softirq = 0, steal = 0;
  if (!(stat >> label >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal))
    return {};
  return {user + nice + system + irq + softirq, steal};
}

int usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload train-cd0|serve-uniform|serve-stream --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--git-sha SHA] [--source-digest HEX]\n";
  return 2;
}

}  // namespace

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";  // Linux: reset VmHWM to VmRSS
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) * 1024 / 1e6;  // kB
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024 / 1e6;  // whole-process peak, KiB
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string out_dir = ".bench_results", git_sha = "unknown", digest = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (key == "--out-dir") {
        out_dir = value;
      } else if (key == "--git-sha") {
        git_sha = value;
      } else if (key == "--source-digest") {
        digest = value;
      } else {
        return usage("unknown flag " + key);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + key + ": " + value);
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(args.seconds > 0)) return usage("--seconds must be positive");

  SpanRecorder spans(args.trace);
  WorkloadResult result;
  const CpuTicks ticks0 = cpu_ticks();
  try {
    if (args.workload == "train-cd0")
      result = run_train_cd0(args, spans);
    else if (args.workload == "serve-uniform")
      result = run_serve(args, spans, /*stream=*/false);
    else if (args.workload == "serve-stream")
      result = run_serve(args, spans, /*stream=*/true);
    else
      return usage("unknown workload " + args.workload);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  if (args.trace)
    for (const auto& [layer, seconds] : spans.self_seconds_by_layer())
      if (layer != "bench") result.metrics[layer + ".self_s"] = seconds;

  for (const MetricDef& d : kEndToEnd) {
    const auto it = result.metrics.find(d.name);
    if (it == result.metrics.end() || !std::isfinite(it->second) || it->second <= 0)
      result.failures.push_back(std::string("end-to-end metric ") + d.name +
                                " is missing, non-finite or not positive");
  }
  const Counts total = result.total();
  // The share of the CPU time the run asked for that the hypervisor withheld.
  // Serving latency rises with it, since every wake of an idle vCPU waits for
  // the host; a spread taken when it is high says more about the host than
  // about the code.
  const CpuTicks ticks1 = cpu_ticks();
  const double steal = ticks1.steal - ticks0.steal;
  const double demanded = ticks1.busy - ticks0.busy + steal;
  const double steal_share = demanded > 0 ? steal / demanded : 0.0;

  // Self-describing record: written whether or not the run was correct.
  std::ostringstream rec;
  rec << "{\n  \"workload\": " << quoted(args.workload) << ",\n  \"seed\": " << args.seed
      << ",\n  \"seconds\": " << num(args.seconds) << ",\n  \"trace\": " << (args.trace ? 1 : 0)
      << ",\n  \"git_sha\": " << quoted(git_sha) << ",\n  \"source_digest\": " << quoted(digest)
      << ",\n  \"nproc\": " << std::thread::hardware_concurrency()
      << ",\n  \"host_steal_share\": " << num(steal_share)
      << ",\n  \"correct\": " << (result.failures.empty() ? "true" : "false")
      << ",\n  \"failures\": [";
  for (std::size_t i = 0; i < result.failures.size(); ++i)
    rec << (i ? ", " : "") << quoted(result.failures[i]);
  rec << "],\n  \"phases\": {";
  for (std::size_t i = 0; i < result.phases.size(); ++i)
    rec << (i ? ", " : "") << quoted(result.phases[i].name) << ": "
        << counts_json(result.phases[i].counts);
  rec << "},\n  \"percentiles\": {";
  for (std::size_t i = 0; i < result.percentiles.size(); ++i) {
    const auto& [name, p] = result.percentiles[i];
    rec << (i ? ", " : "") << quoted(name) << ": {\"q\": " << num(p.q)
        << ", \"value_ms\": " << (p.is_miss() ? std::string("null") : num(p.value * 1e3))
        << ", \"samples\": " << p.samples << ", \"beyond\": " << p.beyond << "}";
  }
  rec << "},\n  \"facts\": {";
  bool first = true;
  for (const auto& [k, v] : result.facts) {
    rec << (first ? "" : ", ") << quoted(k) << ": " << num(v);
    first = false;
  }
  rec << "},\n  \"metrics\": {";
  first = true;
  for (const auto& [k, v] : result.metrics) {
    rec << (first ? "" : ", ") << quoted(k) << ": " << (std::isfinite(v) ? num(v) : "null");
    first = false;
  }
  rec << "}\n}\n";
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::string stem =
      out_dir + "/" + args.workload + "-seed" + std::to_string(args.seed) + "-trace" +
      (args.trace ? "1" : "0");
  std::ofstream(stem + ".json") << rec.str();
  if (args.trace && !spans.write_chrome_trace(stem + ".trace.json"))
    std::cerr << "perfbench: could not write " << stem << ".trace.json\n";

  if (!result.failures.empty()) {
    for (const std::string& f : result.failures) std::cerr << "perfbench: INCORRECT: " << f << "\n";
    return 1;
  }

  std::cout << "workload " << args.workload << " seed " << args.seed << " seconds "
            << args.seconds << " trace " << (args.trace ? 1 : 0) << " nproc "
            << std::thread::hardware_concurrency() << " git " << git_sha << " host_steal_share "
            << num(steal_share) << "\n";
  for (const auto& [name, p] : result.percentiles)
    std::cout << "  " << name << ": " << num(p.value * 1e3) << " ms over " << p.samples
              << " samples, " << p.beyond << " beyond\n";
  for (const Phase& p : result.phases)
    std::cout << "  phase " << p.name << ": " << counts_json(p.counts) << "\n";

  std::ostringstream json;
  json << "{\"correct\": true, \"attempted\": " << total.attempted
       << ", \"failed\": " << total.failed << ", \"metrics\": {";
  first = true;
  const auto emit = [&](const MetricDef& d) {
    const auto it = result.metrics.find(d.name);
    const double v = it == result.metrics.end() || !std::isfinite(it->second) ? 0.0 : it->second;
    std::cout << "  " << d.name << " = " << num(v) << " " << d.unit << "\n";
    json << (first ? "" : ", ") << quoted(d.name) << ": {\"value\": " << num(v)
         << ", \"unit\": " << quoted(d.unit) << "}";
    first = false;
  };
  if (args.trace)
    for (const MetricDef& d : kPerLayer) emit(d);
  else
    for (const MetricDef& d : kEndToEnd) emit(d);
  json << "}}";
  std::cout << "record " << stem << ".json\n" << json.str() << std::endl;
  return 0;
}
