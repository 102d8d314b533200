#include "src/api/simulation.h"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "src/base/assert.h"
#include "src/base/line_codec.h"
#include "src/base/string_util.h"
#include "src/faults/fault_injector.h"

namespace elsc {

const char* KernelConfigLabel(KernelConfig config) {
  switch (config) {
    case KernelConfig::kUp:
      return "UP";
    case KernelConfig::kSmp1:
      return "1P";
    case KernelConfig::kSmp2:
      return "2P";
    case KernelConfig::kSmp4:
      return "4P";
  }
  return "?";
}

KernelConfig KernelConfigFromLabel(const std::string& label) {
  if (label == "UP" || label == "up") {
    return KernelConfig::kUp;
  }
  if (label == "1P" || label == "1p") {
    return KernelConfig::kSmp1;
  }
  if (label == "2P" || label == "2p") {
    return KernelConfig::kSmp2;
  }
  if (label == "4P" || label == "4p") {
    return KernelConfig::kSmp4;
  }
  ELSC_CHECK_MSG(false, "unknown kernel config label (expected UP|1P|2P|4P)");
  __builtin_unreachable();
}

MachineConfig MakeMachineConfig(KernelConfig config, SchedulerKind scheduler, uint64_t seed) {
  MachineConfig mc;
  mc.scheduler = scheduler;
  mc.seed = seed;
  switch (config) {
    case KernelConfig::kUp:
      mc.num_cpus = 1;
      mc.smp = false;
      break;
    case KernelConfig::kSmp1:
      mc.num_cpus = 1;
      mc.smp = true;
      break;
    case KernelConfig::kSmp2:
      mc.num_cpus = 2;
      mc.smp = true;
      break;
    case KernelConfig::kSmp4:
      mc.num_cpus = 4;
      mc.smp = true;
      break;
  }
  return mc;
}

namespace {

RunStats CollectStats(const Machine& machine) {
  RunStats stats;
  stats.sched = machine.scheduler().stats();
  stats.machine = machine.stats();
  stats.events = machine.engine().queue_stats();
  stats.memory.task_arena_bytes = machine.task_arena_bytes();
  stats.memory.task_arena_chunks = machine.task_arena_stats().chunks;
  stats.elapsed_sec = CyclesToSec(machine.Now());
  return stats;
}

// Shared run loop for every facade entry point: arms the chaos layer (a
// no-op when `chaos` is defaulted), traps recoverable invariant violations
// and uncaught workload exceptions so a corrupted run degrades into
// RunStats::failed instead of aborting, and folds the injector/auditor
// verdicts into the stats. A CellDeadlineExceeded from the supervisor's
// watchdog is deliberately NOT an std::exception and punches through to the
// supervisor's retry loop.
template <typename Workload>
RunStats RunWithChaos(Machine& machine, Workload& workload, Cycles deadline,
                      const ChaosOptions& chaos) {
  FaultInjector injector(machine, chaos.faults);
  SchedulerAuditor auditor(machine, chaos.audit);
  // Workloads that expose connection-lifecycle targets (their network-facing
  // sockets) hand them to the injector so a plan's conn-chaos fields can
  // act. Detected structurally: workloads without the hook (kcompile,
  // chaos_mix) are simply never victimized.
  if constexpr (requires { workload.LifecycleTargets(); }) {
    if (chaos.faults.ConnChaosEnabled()) {
      injector.AttachLifecycleTargets(workload.LifecycleTargets());
    }
  }
  injector.Arm();
  auditor.Arm();
  machine.Start();
  RunStats stats;
  {
    ViolationTrap trap;
    std::string exception_failure;
    try {
      machine.RunUntil([&workload] { return workload.Done(); }, deadline);
    } catch (const InvariantViolation&) {
      // Recorded in the trap; fall through and report the partial run.
    } catch (const std::exception& e) {
      exception_failure = StrFormat("uncaught exception: %s", e.what());
    }
    stats = CollectStats(machine);
    // Workloads that can count their sockets feed the memory high-water
    // block; the rest (kcompile, chaos_mix — no sockets) report zero.
    if constexpr (requires { workload.SocketCount(); }) {
      stats.memory.peak_live_sockets = workload.SocketCount();
    }
    if (!exception_failure.empty()) {
      stats.failed = true;
      stats.failure = std::move(exception_failure);
    }
    if (trap.triggered()) {
      const ViolationInfo& v = trap.info();
      stats.failed = true;
      stats.failure = StrFormat("invariant violation: %s at %s:%d%s%s", v.expr,
                                v.file, v.line, v.msg != nullptr ? " — " : "",
                                v.msg != nullptr ? v.msg : "");
    }
  }
  stats.faults = injector.stats();
  stats.audit = auditor.stats();
  if (auditor.failed()) {
    stats.failed = true;
    if (stats.failure.empty()) {
      stats.failure = auditor.diagnosis();
    }
  }
  return stats;
}

}  // namespace

namespace {

// How MergeRunStats folds a counter across runs.
enum class Fold { kSum, kMax };

// One RunStats counter: where it lives, whether RunStatsDigest carries it,
// and how merging folds it.
template <typename Group>
struct StatField {
  uint64_t Group::*member;
  bool digest;
  Fold fold = Fold::kSum;
};

// The RunStats wire schema, declared once. Each group's list is in wire
// order (EncodeRunStats token order), which is not always declaration order.
// The digest-tagged entries, in the same order, are RunStatsDigest's pinned
// subset: counters added after the golden-stats suite froze the digest
// (per-CPU lock and O(1) counters, peak_live_tasks, conn-chaos counters,
// memory) travel through the codec and the proc report only.
constexpr bool kDigest = true;
constexpr bool kCodecOnly = false;

constexpr StatField<SchedStats> kSchedFields[] = {
    {&SchedStats::schedule_calls, kDigest},
    {&SchedStats::idle_schedules, kDigest},
    {&SchedStats::cycles_in_schedule, kDigest},
    {&SchedStats::lock_wait_cycles, kDigest},
    {&SchedStats::tasks_examined, kDigest},
    {&SchedStats::recalc_entries, kDigest},
    {&SchedStats::recalc_tasks_touched, kDigest},
    {&SchedStats::picks_new_processor, kDigest},
    {&SchedStats::picks_prev, kDigest},
    {&SchedStats::picks_no_affinity, kDigest},
    {&SchedStats::yield_reruns, kDigest},
    {&SchedStats::wakeups, kDigest},
    {&SchedStats::preemption_ipis, kDigest},
    {&SchedStats::percpu_lock_acquisitions, kCodecOnly},
    {&SchedStats::percpu_lock_contended, kCodecOnly},
    {&SchedStats::percpu_lock_hold_cycles, kCodecOnly},
    {&SchedStats::percpu_lock_wait_cycles, kCodecOnly},
    {&SchedStats::double_locks, kCodecOnly},
    {&SchedStats::load_balance_calls, kCodecOnly},
    {&SchedStats::pull_migrations, kCodecOnly},
    {&SchedStats::array_swaps, kCodecOnly},
};

constexpr StatField<MachineStats> kMachineFields[] = {
    {&MachineStats::ticks, kDigest},
    {&MachineStats::context_switches, kDigest},
    {&MachineStats::migrations, kDigest},
    {&MachineStats::wakeups, kDigest},
    {&MachineStats::tasks_created, kDigest},
    {&MachineStats::tasks_exited, kDigest},
    {&MachineStats::quantum_expiries, kDigest},
    {&MachineStats::preempt_requests, kDigest},
    {&MachineStats::ticks_dropped, kDigest},
    {&MachineStats::cpu_stalls, kDigest},
    {&MachineStats::lock_stall_cycles, kDigest},
    // Declared 7th, encoded last. Per-machine peaks sum on merge: merged
    // stats describe machines that coexisted (see MergeRunStats).
    {&MachineStats::peak_live_tasks, kCodecOnly},
};

constexpr StatField<EventQueueStats> kEventFields[] = {
    {&EventQueueStats::scheduled, kDigest},
    {&EventQueueStats::fired, kDigest},
    {&EventQueueStats::cancelled, kDigest},
    {&EventQueueStats::callback_heap_allocs, kDigest},
    {&EventQueueStats::slot_allocs, kDigest},
    {&EventQueueStats::max_heap_depth, kDigest, Fold::kMax},
};

constexpr StatField<FaultStats> kFaultFields[] = {
    {&FaultStats::tick_drops, kDigest},
    {&FaultStats::tick_jitters, kDigest},
    {&FaultStats::storm_bursts, kDigest},
    {&FaultStats::storm_tasks, kDigest},
    {&FaultStats::spurious_wakes, kDigest},
    {&FaultStats::yield_tasks, kDigest},
    {&FaultStats::cpu_stalls, kDigest},
    {&FaultStats::lock_stalls, kDigest},
    {&FaultStats::conn_resets, kCodecOnly},
    {&FaultStats::conn_half_opens, kCodecOnly},
    {&FaultStats::slow_peer_windows, kCodecOnly},
    {&FaultStats::reconnect_storms, kCodecOnly},
};

constexpr StatField<AuditStats> kAuditFields[] = {
    {&AuditStats::audits, kDigest},
    {&AuditStats::picks_audited, kDigest},
    {&AuditStats::conservation_violations, kDigest},
    {&AuditStats::counter_violations, kDigest},
    {&AuditStats::structure_violations, kDigest},
    {&AuditStats::table_violations, kDigest},
    {&AuditStats::ordering_violations, kDigest},
    {&AuditStats::starvation_reports, kDigest},
    {&AuditStats::livelock_reports, kDigest},
};

constexpr StatField<MemoryStats> kMemoryFields[] = {
    {&MemoryStats::task_arena_bytes, kCodecOnly},
    {&MemoryStats::task_arena_chunks, kCodecOnly},
    {&MemoryStats::peak_live_sockets, kCodecOnly},
};

// Calls visit(section name, group member, field list) for each group, in
// wire order.
template <typename Visit>
void ForEachStatsGroup(Visit&& visit) {
  visit("sched", &RunStats::sched, kSchedFields);
  visit("machine", &RunStats::machine, kMachineFields);
  visit("events", &RunStats::events, kEventFields);
  visit("faults", &RunStats::faults, kFaultFields);
  visit("audit", &RunStats::audit, kAuditFields);
  visit("memory", &RunStats::memory, kMemoryFields);
}

// Every token of an EncodeRunStats payload but the free-form failure tail;
// Stats is const RunStats with Io = TokenWriter, RunStats with TokenReader.
template <typename Io, typename Stats>
bool RunStatsFields(Io& io, Stats& stats) {
  bool ok = true;
  ForEachStatsGroup([&](const char*, auto group, const auto& fields) {
    for (const auto& field : fields) {
      ok = ok && io.U64((stats.*group).*field.member);
    }
  });
  return ok && io.F64(stats.elapsed_sec) && io.Bool(stats.failed);
}

template <typename Io, typename Result>
bool VolanoResultFields(Io& io, Result& r) {
  return io.Bool(r.completed) && io.F64(r.elapsed_sec) && io.U64(r.messages_sent) &&
         io.U64(r.messages_delivered) && io.F64(r.throughput) &&
         io.U64(r.resets_seen) && io.U64(r.retries) && io.U64(r.reconnects) &&
         io.U64(r.abandons) && io.U64(r.messages_lost);
}

}  // namespace

std::string RunStatsDigest(const RunStats& stats) {
  std::string out;
  ForEachStatsGroup([&](const char* name, auto group, const auto& fields) {
    std::string values;
    for (const auto& field : fields) {
      if (field.digest) {
        values += values.empty() ? "" : ",";
        values += std::to_string((stats.*group).*field.member);
      }
    }
    if (!values.empty()) {
      out += StrFormat("%s:%s|", name, values.c_str());
    }
  });
  // The failure string is a human-readable diagnosis (not canonical); only
  // the verdict bit participates in the digest.
  out += StrFormat("failed:%d|elapsed:%a", stats.failed ? 1 : 0, stats.elapsed_sec);
  return out;
}

std::string EncodeRunStats(const RunStats& stats) {
  std::string out;
  TokenWriter w(&out);
  RunStatsFields(w, stats);
  return out + stats.failure;  // Last: may contain spaces (but never newlines).
}

bool DecodeRunStats(const std::string& payload, RunStats* stats) {
  RunStats out;
  TokenReader r(payload);
  if (!RunStatsFields(r, out)) {
    return false;
  }
  out.failure = r.Rest();
  *stats = std::move(out);
  return true;
}

void MergeRunStats(RunStats* into, const RunStats& from) {
  ForEachStatsGroup([&](const char*, auto group, const auto& fields) {
    for (const auto& field : fields) {
      uint64_t& dst = (into->*group).*field.member;
      const uint64_t src = (from.*group).*field.member;
      dst = field.fold == Fold::kMax ? std::max(dst, src) : dst + src;
    }
  });
  if (from.failed && !into->failed) {
    into->failed = true;
    into->failure = from.failure;
  }
  into->elapsed_sec = std::max(into->elapsed_sec, from.elapsed_sec);
}

std::string EncodeVolanoRun(const VolanoRun& run) {
  // VolanoResult first so the RunStats trailer (free-form failure string)
  // stays at the end of the payload.
  std::string out;
  TokenWriter w(&out);
  VolanoResultFields(w, run.result);
  return out + EncodeRunStats(run.stats);
}

bool DecodeVolanoRun(const std::string& payload, VolanoRun* run) {
  VolanoRun out;
  TokenReader r(payload);
  if (!VolanoResultFields(r, out.result) || !DecodeRunStats(r.Rest(), &out.stats)) {
    return false;
  }
  *run = std::move(out);
  return true;
}

VolanoRun RunVolano(const MachineConfig& machine_config, const VolanoConfig& workload_config,
                    Cycles deadline, const ChaosOptions& chaos) {
  Machine machine(machine_config);
  VolanoWorkload workload(machine, workload_config);
  workload.Setup();
  VolanoRun run;
  run.stats = RunWithChaos(machine, workload, deadline, chaos);
  run.result = workload.Result();
  return run;
}

KcompileRun RunKcompile(const MachineConfig& machine_config,
                        const KcompileConfig& workload_config, Cycles deadline,
                        const ChaosOptions& chaos) {
  Machine machine(machine_config);
  KcompileWorkload workload(machine, workload_config);
  workload.Setup();
  KcompileRun run;
  run.stats = RunWithChaos(machine, workload, deadline, chaos);
  run.result = workload.Result();
  return run;
}

WebserverRun RunWebserver(const MachineConfig& machine_config,
                          const WebserverConfig& workload_config, Cycles deadline,
                          const ChaosOptions& chaos) {
  Machine machine(machine_config);
  WebserverWorkload workload(machine, workload_config);
  workload.Setup();
  WebserverRun run;
  run.stats = RunWithChaos(machine, workload, deadline, chaos);
  run.result = workload.Result();
  return run;
}

ChaosMixRun RunChaosMix(const MachineConfig& machine_config,
                        const ChaosMixConfig& workload_config, Cycles deadline,
                        const ChaosOptions& chaos) {
  Machine machine(machine_config);
  ChaosMixWorkload workload(machine, workload_config);
  workload.Setup();
  ChaosMixRun run;
  run.stats = RunWithChaos(machine, workload, deadline, chaos);
  run.result = workload.Result();
  return run;
}

}  // namespace elsc
