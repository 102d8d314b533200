// The benchmark's workload and metric names, and how a run's result is
// printed. BENCHMARK.json at the repository root lists the same names;
// perfbench/run.py refuses a result whose metrics differ from it.

#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr const char* kWorkloads[] = {
    "volano_reg_4p",
    "federation_elsc",
    "webserver_o1_4p",
    "federation_chaos_resume",
};

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* clock;  // "host" (noisy) or "sim" (deterministic per seed).
};

// Printed by --trace 0 runs.
extern const std::vector<MetricSpec> kEndToEnd;
// Printed by --trace 1 runs. A layer a workload does not exercise reads 0.
extern const std::vector<MetricSpec> kPerLayer;

// Samples per metric name; a metric's value is the median of its samples.
using MetricValues = std::map<std::string, std::vector<double>>;

double Median(std::vector<double> values);  // 0 when empty.
double MedianOf(const MetricValues& values, const std::string& name);

// Human-readable report: configuration notes, correctness problems, and one
// line per metric with its unit and clock.
void PrintReport(const std::string& workload, unsigned long long seed, bool trace,
                 double wall_s, const std::vector<std::string>& notes,
                 const std::vector<std::string>& problems, const MetricValues& values);

// The one-line result object: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, unsigned long long attempted, unsigned long long failed,
                       bool trace, const MetricValues& values);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
