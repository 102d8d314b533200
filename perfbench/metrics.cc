#include "perfbench/metrics.h"

#include <algorithm>
#include <cstdio>

#include "src/base/string_util.h"

namespace perfbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"deliveries_per_wall_s", "ops/s", "host"},
    {"setup_s", "s", "host"},
    {"peak_rss_mb", "MiB", "host"},
    {"sim_throughput", "ops/sim-s", "sim"},
    {"sched_cycles_per_call", "cycles", "sim"},
};

const std::vector<MetricSpec> kPerLayer = {
    // sched: host time per call (self time) and the simulated counts.
    {"sched.pick_ns", "ns", "host"},
    {"sched.pick_share", "fraction", "host"},
    {"sched.enqueue_ns", "ns", "host"},
    {"sched.preempt_check_ns", "ns", "host"},
    {"sched.calls_per_delivery", "calls/op", "sim"},
    {"sched.examined_per_call", "tasks/call", "sim"},
    {"sched.lock_wait_cycles_per_call", "cycles", "sim"},
    {"sched.recalc_entries", "count", "sim"},
    // workloads + net: behavior callbacks.
    {"workloads.segment_ns", "ns", "host"},
    {"workloads.share", "fraction", "host"},
    {"workloads.segments_per_delivery", "calls/op", "sim"},
    // sim + smp: the engine event loop and the Machine's own work.
    {"sim.event_ns", "ns", "host"},
    {"smp.self_share", "fraction", "host"},
    {"sim.events_per_delivery", "events/op", "sim"},
    {"sim.cancels_per_event", "fraction", "sim"},
    {"sim.max_heap_depth", "count", "sim"},
    // api.scale + sim.fabric + harness.
    {"scale.window_ms", "ms", "host"},
    {"scale.parallel_efficiency", "fraction", "host"},
    {"scale.windows", "count", "sim"},
    {"fabric.beacons_per_window", "count", "sim"},
    {"fabric.dropped", "count", "sim"},
    // memory.
    {"mem.arena_bytes_per_task", "B", "sim"},
    {"mem.rss_bytes_per_conn", "B", "host"},
    // api.scale_ckpt + recovery.
    {"ckpt.segment_bytes", "B", "sim"},
    {"ckpt.stop_s", "s", "host"},
    {"ckpt.replay_windows", "count", "sim"},
    {"resume_s", "s", "host"},
    {"fed.retransmits_per_delivery", "ratio", "sim"},
    {"fed.deliveries_lost", "count", "sim"},
    // Open-loop request latency (webserver).
    {"sim_latency_p99_ms", "ms", "sim"},
    // The tracing itself.
    {"trace.overhead", "fraction", "host"},
    {"trace.wrapped_share", "fraction", "sim"},
};

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double MedianOf(const MetricValues& values, const std::string& name) {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : Median(it->second);
}

void PrintReport(const std::string& workload, unsigned long long seed, bool trace,
                 double wall_s, const std::vector<std::string>& notes,
                 const std::vector<std::string>& problems, const MetricValues& values) {
  std::printf("workload %s  seed %llu  trace %d  wall %.2f s\n", workload.c_str(), seed,
              trace ? 1 : 0, wall_s);
  for (const std::string& note : notes) {
    std::printf("  %s\n", note.c_str());
  }
  for (const std::string& problem : problems) {
    std::printf("  FAIL: %s\n", problem.c_str());
  }
  for (const MetricSpec& spec : trace ? kPerLayer : kEndToEnd) {
    const auto it = values.find(spec.name);
    const std::vector<double> samples = it == values.end() ? std::vector<double>{} : it->second;
    const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
    std::printf("  %-34s %14.6g %-10s %-4s median of %zu, range %.6g..%.6g\n", spec.name,
                MedianOf(values, spec.name), spec.unit, spec.clock, samples.size(),
                samples.empty() ? 0.0 : *lo, samples.empty() ? 0.0 : *hi);
  }
}

std::string ResultJson(bool correct, unsigned long long attempted, unsigned long long failed,
                       bool trace, const MetricValues& values) {
  std::string metrics;
  for (const MetricSpec& spec : trace ? kPerLayer : kEndToEnd) {
    if (!metrics.empty()) {
      metrics += ", ";
    }
    metrics += elsc::StrFormat("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", spec.name,
                               MedianOf(values, spec.name), spec.unit);
  }
  return elsc::StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}",
      correct ? "true" : "false", attempted, failed, metrics.c_str());
}

}  // namespace perfbench
