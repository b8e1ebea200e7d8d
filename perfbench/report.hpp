// What a workload hands back to main(): metric values, operation counts, the
// percentile evidence, and the correctness verdict.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// One phase's operation counts, recorded in the self-describing result.
struct Phase {
  std::string name;
  Counts counts;
};

struct WorkloadResult {
  std::map<std::string, double> metrics;   // by metric name (units live in main.cpp)
  std::vector<Phase> phases;
  std::vector<std::pair<std::string, Percentile>> percentiles;  // named, for the record
  std::vector<std::string> failures;       // correctness violations; empty = correct
  std::map<std::string, double> facts;     // extra self-describing numbers

  Counts total() const {
    Counts c;
    for (const Phase& p : phases) c += p.counts;
    return c;
  }
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// Returns freed heap memory to the OS and restarts the peak-RSS count, so
/// the peak covers the measured phase and what stays resident from set-up,
/// not the garbage of repeated set-ups.
void reset_peak_rss();
/// Peak resident set since the last reset_peak_rss(), in MB (10^6 bytes).
double peak_rss_mb();

WorkloadResult run_train_cd0(const Args& args, SpanRecorder& spans);
WorkloadResult run_serve(const Args& args, SpanRecorder& spans, bool stream);

}  // namespace perfbench
