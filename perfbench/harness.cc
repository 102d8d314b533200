#include "perfbench/harness.h"

#include <chrono>

#include "src/base/string_util.h"

namespace perfbench {

std::string HashHex(const std::string& text) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return elsc::StrFormat("%016llx", static_cast<unsigned long long>(hash));
}

double NowSec() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t ExpectedDeliveries(const elsc::VolanoConfig& chat) {
  return static_cast<uint64_t>(chat.rooms) * static_cast<uint64_t>(chat.users_per_room) *
         static_cast<uint64_t>(chat.users_per_room) *
         static_cast<uint64_t>(chat.messages_per_user);
}

namespace {

constexpr elsc::Cycles kDeadline = elsc::SecToCycles(3600);

// Mirrors the api layer's CollectStats, which is private to it.
elsc::RunStats CollectStats(const elsc::Machine& machine) {
  elsc::RunStats stats;
  stats.sched = machine.scheduler().stats();
  stats.machine = machine.stats();
  stats.events = machine.engine().queue_stats();
  stats.memory.task_arena_bytes = machine.task_arena_bytes();
  stats.memory.task_arena_chunks = machine.task_arena_stats().chunks;
  stats.elapsed_sec = elsc::CyclesToSec(machine.Now());
  return stats;
}

void Summarize(const elsc::VolanoWorkload& workload, MachineRun* out) {
  const elsc::VolanoResult r = workload.Result();
  out->completed = out->completed && r.completed;
  out->operations = r.messages_delivered;
  out->expected_operations = ExpectedDeliveries(workload.config());
  out->sim_throughput = r.throughput;
  out->connections = static_cast<uint64_t>(workload.config().rooms) *
                     static_cast<uint64_t>(workload.config().users_per_room);
  out->digest = HashHex(elsc::RunStatsDigest(out->stats) +
                        elsc::StrFormat("|sent=%llu|delivered=%llu|tput=%a",
                                        static_cast<unsigned long long>(r.messages_sent),
                                        static_cast<unsigned long long>(r.messages_delivered),
                                        r.throughput));
}

void Summarize(const elsc::WebserverWorkload& workload, MachineRun* out) {
  const elsc::WebserverResult r = workload.Result();
  out->operations = r.requests_completed;
  // Every arrival must complete: a dropped, shed or abandoned request is a
  // failed operation.
  out->expected_operations = r.requests_arrived;
  out->sim_throughput = r.throughput;
  out->latency_p99_ms = static_cast<double>(r.latency_p99_us) / 1000.0;
  out->connections = r.requests_arrived;
  out->digest = HashHex(
      elsc::RunStatsDigest(out->stats) +
      elsc::StrFormat("|arrived=%llu|completed=%llu|dropped=%llu|p99=%llu|tput=%a",
                      static_cast<unsigned long long>(r.requests_arrived),
                      static_cast<unsigned long long>(r.requests_completed),
                      static_cast<unsigned long long>(r.requests_dropped),
                      static_cast<unsigned long long>(r.latency_p99_us), r.throughput));
}

template <typename Workload, typename Config>
MachineRun RunMachine(elsc::MachineConfig machine_config, const Config& config, bool traced) {
  MachineRun out;
  Tracer tracer;
  if (traced) {
    machine_config.scheduler_factory =
        TimedSchedulerFactory(machine_config.scheduler, machine_config.elsc, &tracer);
  }
  tracer.Reset();
  elsc::Machine machine(machine_config);
  Workload workload(machine, config);
  workload.Setup();
  BehaviorWrapper wrapper(machine, &tracer);
  if (traced) {
    wrapper.Wrap();
  }
  const double run_start = NowSec();
  if (traced) {
    tracer.Begin();  // The first event span.
    machine.Start();
    out.completed = machine.RunUntil(
        [&] {
          const bool done = workload.Done();
          tracer.End(Layer::kEvent);
          wrapper.Wrap();
          tracer.Begin();
          return done;
        },
        kDeadline);
    for (size_t i = 0; i < out.layers.size(); ++i) {
      out.layers[i] = tracer.totals(static_cast<Layer>(i));
    }
    out.wrapped = wrapper.wrapped();
    out.wrapped_before_dispatch = wrapper.wrapped_before_dispatch();
  } else {
    machine.Start();
    out.completed = machine.RunUntil([&workload] { return workload.Done(); }, kDeadline);
  }
  out.run_s = NowSec() - run_start;
  out.stats = CollectStats(machine);
  out.stats.memory.peak_live_sockets = workload.SocketCount();
  Summarize(workload, &out);
  return out;
}

template <typename Workload, typename Config>
double SetupSeconds(const elsc::MachineConfig& machine_config, const Config& config) {
  const double t0 = NowSec();
  elsc::Machine machine(machine_config);
  Workload workload(machine, config);
  workload.Setup();
  return NowSec() - t0;
}

}  // namespace

MachineRun RunVolanoMachine(const elsc::MachineConfig& machine, const elsc::VolanoConfig& chat,
                            bool traced) {
  return RunMachine<elsc::VolanoWorkload>(machine, chat, traced);
}

MachineRun RunWebserverMachine(const elsc::MachineConfig& machine,
                               const elsc::WebserverConfig& web, bool traced) {
  return RunMachine<elsc::WebserverWorkload>(machine, web, traced);
}

double VolanoSetupSeconds(const elsc::MachineConfig& machine, const elsc::VolanoConfig& chat) {
  return SetupSeconds<elsc::VolanoWorkload>(machine, chat);
}

double WebserverSetupSeconds(const elsc::MachineConfig& machine,
                             const elsc::WebserverConfig& web) {
  return SetupSeconds<elsc::WebserverWorkload>(machine, web);
}

FederationRun RunFederation(const elsc::ScaleConfig& config, int shards) {
  FederationRun out;
  const double t0 = NowSec();
  out.run = elsc::RunShardedVolano(config, shards);
  out.wall_s = NowSec() - t0;
  out.signature = elsc::ScaleRunSignature(out.run);
  return out;
}

double FederationSetupSeconds(const elsc::ScaleConfig& config, int shards) {
  elsc::ScaleConfig cut = config;
  cut.deadline = cut.window;
  cut.ckpt = elsc::ScaleCheckpointOptions{};
  const double t0 = NowSec();
  elsc::RunShardedVolano(cut, shards);
  return NowSec() - t0;
}

}  // namespace perfbench
