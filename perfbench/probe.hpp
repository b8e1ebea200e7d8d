// Host probe: a fixed piece of the benchmark's own work, timed in CPU time
// between the measured phases, that says how busy the shared host was
// during a run. It changes no metric.
//
// Neighbours on a shared host slow the cores without taking them away: in
// busy periods, with steal near 0, every CPU time the benchmark measures
// ran about 2x higher than in quiet ones. Some probe passes then run slowed
// and some at full speed, so the median pass over the fastest one rises:
// it read 1.15-1.60 in a busy period, where an earlier compute-only version
// read 1.01-1.07 in a quiet one. Before comparing two runs' CPU times,
// compare their slowdowns.
#pragma once

#include <vector>

namespace perfbench {

/// Runs `passes` probe passes on each of `threads` threads at once and
/// returns every pass's CPU time in seconds. A pass multiplies two 32 x 32
/// float matrices on the thread's stack, then reads random rows of a
/// 256 KiB table that stays in the core's L2 cache: it sees what slows a
/// core (a busy sibling hyperthread, shared caches) and not where memory
/// happens to be placed.
std::vector<double> probe_passes(int passes, int threads);

/// The median pass over the fastest pass (1 when there are none).
double host_slowdown(const std::vector<double>& pass_seconds);

}  // namespace perfbench
