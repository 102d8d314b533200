// The benchmark's view of the simulator: configs generated from a seed, and
// timed runs of one Machine or one sharded federation. Everything here goes
// through the library's public API; nothing in the program is changed to
// measure it.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>

#include "perfbench/timed_layers.h"
#include "src/api/overload.h"
#include "src/api/scale.h"
#include "src/api/simulation.h"

namespace perfbench {

// 64-bit FNV-1a, as hex: the benchmark's pinned-digest format.
std::string HashHex(const std::string& text);

double NowSec();

// ---- Single-machine runs ----

// What a Machine run reports. Host times come from the benchmark's clock;
// everything else is simulated and deterministic for a given config.
struct MachineRun {
  bool completed = false;
  elsc::RunStats stats;
  std::string digest;         // HashHex(RunStatsDigest + result line).
  uint64_t operations = 0;    // Chat deliveries or completed requests.
  uint64_t expected_operations = 0;
  double sim_throughput = 0.0;
  double latency_p99_ms = 0.0;  // Webserver only; 0 for chat.
  uint64_t connections = 0;
  double run_s = 0.0;  // Host seconds from Start() through the last event.
  // Traced runs only.
  std::array<LayerTotals, static_cast<size_t>(Layer::kCount)> layers{};
  uint64_t wrapped = 0;
  uint64_t wrapped_before_dispatch = 0;
};

// The facade's run loop (RunVolano / RunWebserver) with the Machine in
// reach: untraced it is the same call sequence, traced it adds the
// scheduler decorator, behavior wrappers and per-event spans.
MachineRun RunVolanoMachine(const elsc::MachineConfig& machine, const elsc::VolanoConfig& chat,
                            bool traced);
MachineRun RunWebserverMachine(const elsc::MachineConfig& machine,
                               const elsc::WebserverConfig& web, bool traced);

// Host seconds to construct and Set up the workload, with nothing run.
double VolanoSetupSeconds(const elsc::MachineConfig& machine, const elsc::VolanoConfig& chat);
double WebserverSetupSeconds(const elsc::MachineConfig& machine,
                             const elsc::WebserverConfig& web);

uint64_t ExpectedDeliveries(const elsc::VolanoConfig& chat);

// ---- Federation runs (timed as whole RunShardedVolano calls) ----

struct FederationRun {
  elsc::ScaleRun run;
  std::string signature;  // ScaleRunSignature(run).
  double wall_s = 0.0;
};

FederationRun RunFederation(const elsc::ScaleConfig& config, int shards);

// The closest set-up time measurable from outside RunShardedVolano: one call
// cut short by a deadline at the first window barrier, so it builds and
// boots every node, runs one window and folds the nodes as unfinished.
double FederationSetupSeconds(const elsc::ScaleConfig& config, int shards);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
