// The repository's benchmark: one workload per invocation.
//
//   perfbench_run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--golden <file>] [--scratch <dir>] [--print-digest]
//   perfbench_run --list-metrics
//
// --trace 0 measures the end-to-end metrics on untraced runs; --trace 1
// measures the per-layer metrics on traced runs and checks that tracing left
// every simulated result unchanged. Both check the outputs: pinned digests,
// exact delivery counts, resume == uninterrupted. The last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"}. perfbench/run.py
// builds this program and is the command to run; see perfbench/README.md.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/metrics.h"
#include "src/base/string_util.h"
#include "src/harness/run_matrix.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string golden;
  std::string scratch = ".";
  bool print_digest = false;
  bool list_metrics = false;
};

// ---- Workload configs: pure functions of the seed ----

// Keys separate the workloads' seed streams.
constexpr uint64_t kVolanoKey = 0x766f6c616e6f0001ULL;
constexpr uint64_t kWebKey = 0x7765627365727601ULL;
constexpr uint64_t kFederationKey = 0x6665646572617401ULL;
constexpr uint64_t kChaosKey = 0x6368616f73000001ULL;
constexpr uint64_t kProbeKey = 0x70726f6265000001ULL;

// Threads for the federations' shards and for parallel repetitions: the
// reference host's 4 CPUs, never more.
constexpr int kShards = 4;

// The paper's heavy-load case: 1,600 threads on the stock scheduler, 4P.
elsc::MachineConfig VolanoMachine(uint64_t seed) {
  return elsc::MakeMachineConfig(elsc::KernelConfig::kSmp4, elsc::SchedulerKind::kLinux,
                                 elsc::DeriveSeed(seed, kVolanoKey, 0));
}

elsc::VolanoConfig VolanoChat() {
  elsc::VolanoConfig chat;
  chat.rooms = 20;
  chat.users_per_room = 20;
  chat.messages_per_user = 40;
  return chat;
}

// Open-loop Poisson webserver at 0.9x saturation, resilience layer on.
elsc::MachineConfig WebMachine(uint64_t seed) {
  return elsc::MakeMachineConfig(elsc::KernelConfig::kSmp4, elsc::SchedulerKind::kO1,
                                 elsc::DeriveSeed(seed, kWebKey, 0));
}

elsc::WebserverConfig WebConfig() {
  elsc::WebserverConfig web = elsc::OverloadBaseConfig(elsc::SecToCycles(120));
  web.arrival_rate_per_sec = 0.9 * elsc::WebserverSaturationRate(web, 4);
  return web;
}

// Fault-free federation of 1P ELSC nodes, one room each, gossip on.
elsc::ScaleConfig FederationConfig(uint64_t seed) {
  elsc::ScaleConfig config;
  config.rooms = 400;
  config.rooms_per_node = 1;
  config.chat.users_per_room = 20;
  config.chat.messages_per_user = 10;
  config.kernel = elsc::KernelConfig::kSmp1;
  config.scheduler = elsc::SchedulerKind::kElsc;
  config.seed = elsc::DeriveSeed(seed, kFederationKey, 0);
  return config;
}

// 200 rooms with crashes, loss, duplication and retransmission armed.
// The scenario runs 139-141 windows across seeds; it is stopped in the middle.
constexpr uint64_t kChaosStopWindow = 70;
elsc::ScaleConfig ChaosConfig(uint64_t seed) {
  elsc::ScaleConfig config = FederationConfig(seed);
  config.rooms = 200;
  config.seed = elsc::DeriveSeed(seed, kChaosKey, 0);
  config.faults = elsc::FederationChaosPlan(elsc::DeriveSeed(seed, kChaosKey, 1));
  return config;
}

// One federation node, run as a lone Machine so the traced layers can reach
// its scheduler and behaviors (RunShardedVolano builds its Machines itself).
// Same kernel, scheduler and rooms per node; no fabric relay tasks.
void ProbeNode(const elsc::ScaleConfig& config, uint64_t seed, elsc::MachineConfig* machine,
               elsc::VolanoConfig* chat) {
  *machine = elsc::MakeMachineConfig(config.kernel, config.scheduler,
                                     elsc::DeriveSeed(seed, kProbeKey, 0));
  *chat = config.chat;
  chat->rooms = config.rooms_per_node;
}

// ---- Helpers ----

std::string MachineLabel(const elsc::MachineConfig& machine) {
  return machine.smp ? elsc::StrFormat("%dP", machine.num_cpus) : std::string("UP");
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// The process's peak resident set. VmHWM, not getrusage's ru_maxrss: the
// latter carries over the launching process's peak across exec.
double PeakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0;  // Reported in kB.
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// Runs `rep` on `threads` threads at once, each until `seconds` have passed
// and it ran at least `min_reps` times, and returns every result. Exceptions
// are rethrown after every thread has joined.
template <typename T>
std::vector<T> ParallelRepeat(int threads, double seconds, int min_reps,
                              const std::function<T()>& rep) {
  std::vector<std::vector<T>> results(static_cast<size_t>(threads));
  std::vector<std::exception_ptr> errors(static_cast<size_t>(threads));
  const double start = NowSec();
  {
    std::vector<std::jthread> pool;
    for (size_t t = 0; t < results.size(); ++t) {
      pool.emplace_back([&, t] {
        try {
          while (static_cast<int>(results[t].size()) < min_reps || NowSec() - start < seconds) {
            results[t].push_back(rep());
          }
        } catch (...) {
          errors[t] = std::current_exception();
        }
      });
    }
  }
  std::vector<T> all;
  for (size_t t = 0; t < results.size(); ++t) {
    if (errors[t]) {
      std::rethrow_exception(errors[t]);
    }
    all.insert(all.end(), results[t].begin(), results[t].end());
  }
  return all;
}

// Set-up takes microseconds to milliseconds, and host speed flips between
// fast and slow spells about as often as every half second. So set-up is
// sampled in short bursts between the repetitions, spread over the whole
// run, and reported as the median of every sample.
std::vector<double> SetupBurst(const std::function<double()>& setup) {
  std::vector<double> samples;
  const double start = NowSec();
  while (samples.size() < 2 || NowSec() - start < 0.02) {
    samples.push_back(setup());
  }
  return samples;
}

// Runs `rep` until `seconds` have passed and at least `min_reps` ran.
void Repeat(double seconds, int min_reps, const std::function<void()>& rep) {
  const double start = NowSec();
  int reps = 0;
  while (reps < min_reps || NowSec() - start < seconds) {
    rep();
    ++reps;
  }
}

// Correctness bookkeeping: operations attempted and failed, and why.
class Verdict {
 public:
  void Attempt(uint64_t operations, uint64_t missing) {
    attempted_ += operations;
    failed_ += std::min(missing, operations);
  }
  // A failed check fails every operation of its run.
  void Check(bool ok, const std::string& what, uint64_t operations) {
    if (ok) {
      return;
    }
    failed_ += operations;
    if (std::find(problems_.begin(), problems_.end(), what) == problems_.end()) {
      problems_.push_back(what);
    }
  }
  bool correct() const { return problems_.empty() && failed_ == 0; }
  uint64_t attempted() const { return std::max<uint64_t>(attempted_, 1); }
  uint64_t failed() const { return std::min(failed_, attempted()); }
  const std::vector<std::string>& problems() const { return problems_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> problems_;
};

// Pinned digests: "<workload> <seed> <digest>" lines; '#' starts a comment.
std::map<std::pair<std::string, uint64_t>, std::string> LoadGolden(const std::string& path) {
  std::map<std::pair<std::string, uint64_t>, std::string> golden;
  if (path.empty()) {
    return golden;
  }
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read golden digests " + path);
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string workload, digest;
    uint64_t seed = 0;
    if (fields >> workload >> seed >> digest) {
      golden[{workload, seed}] = digest;
    }
  }
  return golden;
}

struct Context {
  Args args;
  std::string pinned;  // Empty when the seed has no pinned digest.
  Verdict verdict;
  MetricValues values;
  std::vector<std::string> notes;

  // Checks a run's digest against `pin` (if any) and the first repetition's
  // (`*first`, set on the first call).
  void CheckDigest(const std::string& what, const std::string& digest, std::string* first,
                   const std::string& pin, uint64_t operations) {
    if (first->empty()) {
      *first = digest;
      notes.push_back(what + " digest " + digest + (pin.empty() ? " (not pinned)" : " (pinned)"));
    }
    verdict.Check(digest == *first, "digest changed between repetitions: " + digest, operations);
    verdict.Check(pin.empty() || digest == pin, "digest " + digest + " != pinned " + pin,
                  operations);
  }

  void CheckMachineRun(const std::string& what, const MachineRun& run, std::string* first,
                       const std::string& pin) {
    verdict.Attempt(run.expected_operations,
                    run.expected_operations - std::min(run.expected_operations, run.operations));
    verdict.Check(run.completed, "run did not complete", run.expected_operations);
    verdict.Check(!run.stats.failed, "run failed: " + run.stats.failure, run.expected_operations);
    CheckDigest(what, run.digest, first, pin, run.expected_operations);
  }

  void CheckFederation(const FederationRun& fed, uint64_t expected, std::string* first) {
    verdict.Attempt(expected, expected - std::min(expected, fed.run.messages_delivered));
    verdict.Check(fed.run.completed, "federation did not complete", expected);
    verdict.Check(!fed.run.stats.failed, "federation failed: " + fed.run.stats.failure,
                  expected);
    CheckDigest("federation", HashHex(fed.signature), first, pinned, expected);
  }
};

// ---- Per-layer metrics shared by every traced Machine ----

// Host-time spans of a traced run, against its untraced twin.
void HostLayers(const MachineRun& traced, const MachineRun& plain, MetricValues* v) {
  auto layer = [&traced](Layer l) { return traced.layers[static_cast<size_t>(l)]; };
  const double run_ns = traced.run_s * 1e9;
  const LayerTotals pick = layer(Layer::kPick);
  const LayerTotals enqueue = layer(Layer::kEnqueue);
  const LayerTotals preempt = layer(Layer::kPreemptCheck);
  const LayerTotals segment = layer(Layer::kSegment);
  const LayerTotals event = layer(Layer::kEvent);
  (*v)["sched.pick_ns"].push_back(Ratio(pick.self_ns, pick.calls));
  (*v)["sched.pick_share"].push_back(Ratio(pick.self_ns, run_ns));
  (*v)["sched.enqueue_ns"].push_back(Ratio(enqueue.self_ns, enqueue.calls));
  (*v)["sched.preempt_check_ns"].push_back(Ratio(preempt.self_ns, preempt.calls));
  (*v)["workloads.segment_ns"].push_back(Ratio(segment.self_ns, segment.calls));
  (*v)["workloads.share"].push_back(Ratio(segment.self_ns, run_ns));
  (*v)["workloads.segments_per_delivery"].push_back(
      Ratio(segment.calls, plain.operations));
  (*v)["sim.event_ns"].push_back(Ratio(event.total_ns, event.calls));
  (*v)["smp.self_share"].push_back(Ratio(event.self_ns, run_ns));
  (*v)["trace.overhead"].push_back(Ratio(traced.run_s, plain.run_s) - 1.0);
  (*v)["trace.wrapped_share"].push_back(
      Ratio(traced.wrapped_before_dispatch, traced.wrapped));
}

// Simulated per-layer counts: deterministic for a given config.
void SimulatedLayers(const elsc::RunStats& stats, uint64_t operations, MetricValues* v) {
  const double calls = static_cast<double>(stats.sched.schedule_calls);
  (*v)["sched.calls_per_delivery"].push_back(Ratio(calls, operations));
  (*v)["sched.examined_per_call"].push_back(stats.sched.TasksExaminedPerCall());
  (*v)["sched.lock_wait_cycles_per_call"].push_back(
      Ratio(stats.sched.lock_wait_cycles, calls));
  (*v)["sched.recalc_entries"].push_back(stats.sched.recalc_entries);
  (*v)["sim.events_per_delivery"].push_back(Ratio(stats.events.fired, operations));
  (*v)["sim.cancels_per_event"].push_back(Ratio(stats.events.cancelled, stats.events.fired));
  (*v)["sim.max_heap_depth"].push_back(stats.events.max_heap_depth);
}

// A traced run and its untraced twin; the twin's digest is the reference
// the traced run must reproduce. Returns the twin.
MachineRun TracedPair(Context& ctx, const std::string& what,
                      const std::function<MachineRun(bool)>& run, std::string* first,
                      const std::string& pin) {
  const MachineRun plain = run(false);
  ctx.CheckMachineRun(what, plain, first, pin);
  const MachineRun traced = run(true);
  ctx.CheckMachineRun(what, traced, first, pin);
  ctx.verdict.Check(traced.digest == plain.digest,
                    "tracing changed the simulation: " + traced.digest + " != " + plain.digest,
                    plain.expected_operations);
  HostLayers(traced, plain, &ctx.values);
  return plain;
}

// ---- Single-machine workloads ----

// Host speed on a shared machine drifts per CPU, for seconds at a time (a
// busy sibling hyperthread, say), so one thread's figures swing by a third
// from run to run. Untraced single-machine runs therefore repeat on every
// measuring thread at once, each repetition a whole independent simulation,
// and report the median per-simulation figure over all of them. The first
// repetition runs alone, so peak RSS is that of one simulation.
void RunSingleMachine(Context& ctx, const std::function<MachineRun(bool)>& run,
                      const std::function<double()>& setup) {
  std::string first;
  if (!ctx.args.trace) {
    struct Rep {
      MachineRun run;
      std::vector<double> setups;
    };
    auto rep = [&] { return Rep{run(false), SetupBurst(setup)}; };
    const double start = NowSec();
    std::vector<Rep> reps = {rep()};
    ctx.values["peak_rss_mb"].push_back(PeakRssBytes() / (1024.0 * 1024.0));
    const std::vector<Rep> more =
        ParallelRepeat<Rep>(kShards, ctx.args.seconds - (NowSec() - start), 1, rep);
    reps.insert(reps.end(), more.begin(), more.end());
    std::vector<double> setups;
    for (const Rep& r : reps) {
      ctx.CheckMachineRun("machine", r.run, &first, ctx.pinned);
      ctx.values["deliveries_per_wall_s"].push_back(Ratio(r.run.operations, r.run.run_s));
      ctx.values["sim_throughput"].push_back(r.run.sim_throughput);
      ctx.values["sched_cycles_per_call"].push_back(r.run.stats.sched.CyclesPerSchedule());
      setups.insert(setups.end(), r.setups.begin(), r.setups.end());
    }
    ctx.values["setup_s"].push_back(Median(setups));
    return;
  }
  Repeat(ctx.args.seconds, 1, [&] {
    const MachineRun plain = TracedPair(ctx, "machine", run, &first, ctx.pinned);
    SimulatedLayers(plain.stats, plain.operations, &ctx.values);
    ctx.values["mem.arena_bytes_per_task"].push_back(
        Ratio(plain.stats.memory.task_arena_bytes, plain.stats.machine.peak_live_tasks));
    ctx.values["mem.rss_bytes_per_conn"].push_back(
        Ratio(PeakRssBytes(), plain.connections));
    ctx.values["sim_latency_p99_ms"].push_back(plain.latency_p99_ms);
  });
}

// ---- Federation workloads ----

void NoteFederation(Context& ctx, const elsc::ScaleConfig& config) {
  ctx.notes.push_back(elsc::StrFormat(
      "config: federation %d rooms (%d per node) x %d users x %d msgs, %s %s nodes, "
      "%d shards, seed %016llx, faults %s",
      config.rooms, config.rooms_per_node, config.chat.users_per_room,
      config.chat.messages_per_user, elsc::KernelConfigLabel(config.kernel),
      elsc::SchedulerKindName(config.scheduler), kShards,
      static_cast<unsigned long long>(config.seed), config.faults.Enabled() ? "on" : "off"));
}

uint64_t FederationDeliveries(const elsc::ScaleConfig& config) {
  elsc::VolanoConfig chat = config.chat;
  chat.rooms = config.rooms;
  return ExpectedDeliveries(chat);
}

void FederationLayers(Context& ctx, const FederationRun& fed) {
  const elsc::ScaleRun& run = fed.run;
  SimulatedLayers(run.stats, run.messages_delivered, &ctx.values);
  ctx.values["scale.windows"].push_back(run.windows);
  ctx.values["scale.window_ms"].push_back(Ratio(fed.wall_s * 1e3, run.windows));
  ctx.values["fabric.beacons_per_window"].push_back(
      Ratio(run.beacons_received, run.windows));
  const elsc::FabricStats& f = run.fabric;
  ctx.values["fabric.dropped"].push_back(f.dropped_closed + f.dropped_loss +
                                         f.dropped_partition + f.dropped_crashed +
                                         f.dropped_lane_overflow);
  ctx.values["mem.arena_bytes_per_task"].push_back(
      Ratio(run.peak_task_arena_bytes, run.peak_live_tasks));
  ctx.values["mem.rss_bytes_per_conn"].push_back(Ratio(PeakRssBytes(), run.connections));
  ctx.values["fed.retransmits_per_delivery"].push_back(
      Ratio(run.retransmits, run.beacons_received));
  ctx.values["fed.deliveries_lost"].push_back(run.deliveries_lost);
}

// The traced extras every federation workload reports: shard scaling (the
// 1-shard run must also reproduce the signature) and the node probe's spans.
void FederationTraceExtras(Context& ctx, const elsc::ScaleConfig& config,
                           const FederationRun& sharded, std::string* first,
                           std::string* probe_first) {
  const FederationRun serial = RunFederation(config, 1);
  ctx.CheckFederation(serial, FederationDeliveries(config), first);
  ctx.values["scale.parallel_efficiency"].push_back(
      Ratio(serial.wall_s, kShards * sharded.wall_s));

  elsc::MachineConfig machine;
  elsc::VolanoConfig chat;
  ProbeNode(config, ctx.args.seed, &machine, &chat);
  TracedPair(
      ctx, "node probe", [&](bool traced) { return RunVolanoMachine(machine, chat, traced); },
      probe_first, /*pin=*/"");
}

// Peak RSS is read after the first repetition, in a fresh process: later
// repetitions start from memory the allocator kept, which drifts. Set-up is
// sampled once after each later repetition, so the samples span the run.
void RunFederationElsc(Context& ctx) {
  const elsc::ScaleConfig config = FederationConfig(ctx.args.seed);
  NoteFederation(ctx, config);
  const uint64_t expected = FederationDeliveries(config);
  std::string first;
  if (!ctx.args.trace) {
    const double start = NowSec();
    auto rep = [&] {
      const FederationRun fed = RunFederation(config, kShards);
      ctx.CheckFederation(fed, expected, &first);
      ctx.values["deliveries_per_wall_s"].push_back(
          Ratio(fed.run.messages_delivered, fed.wall_s));
      ctx.values["sim_throughput"].push_back(fed.run.throughput);
      ctx.values["sched_cycles_per_call"].push_back(fed.run.stats.sched.CyclesPerSchedule());
    };
    rep();
    ctx.values["peak_rss_mb"].push_back(PeakRssBytes() / (1024.0 * 1024.0));
    Repeat(ctx.args.seconds - (NowSec() - start), 2, [&] {
      rep();
      ctx.values["setup_s"].push_back(FederationSetupSeconds(config, kShards));
    });
    return;
  }
  std::string probe_first;
  Repeat(ctx.args.seconds, 1, [&] {
    const FederationRun fed = RunFederation(config, kShards);
    ctx.CheckFederation(fed, expected, &first);
    FederationLayers(ctx, fed);
    FederationTraceExtras(ctx, config, fed, &first, &probe_first);
  });
}

// Stops a checkpointed run of `config` at `stop_window`, then resumes it
// in-process. The caller checks the resumed signature against the
// uninterrupted run's.
struct StopResume {
  double stop_s = 0.0;
  double segment_bytes = 0.0;
  uint64_t stop_window = 0;
  FederationRun resumed;
};

StopResume StopAndResume(Context& ctx, elsc::ScaleConfig config, uint64_t stop_window,
                         uint64_t expected) {
  StopResume out;
  const std::filesystem::path dir =
      std::filesystem::path(ctx.args.scratch) / ("ckpt-" + std::to_string(ctx.args.seed));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  config.ckpt.path = (dir / "fed").string();
  config.ckpt.every = 0;  // Forced segment only.
  config.ckpt.stop_after_window = stop_window;
  const uint64_t fp = elsc::ScaleConfigFingerprint(config);

  const FederationRun stopped = RunFederation(config, kShards);
  out.stop_s = stopped.wall_s;
  ctx.verdict.Check(!stopped.run.completed, "stop_after_window did not stop the run", expected);
  const std::vector<elsc::CheckpointSegmentInfo> segments =
      elsc::ListCheckpointSegments(config.ckpt.path, fp);
  ctx.verdict.Check(segments.size() == 1, "expected exactly one checkpoint segment", expected);
  if (!segments.empty()) {
    out.stop_window = segments[0].window;
    out.segment_bytes = static_cast<double>(std::filesystem::file_size(segments[0].path));
  }

  config.ckpt.stop_after_window = 0;
  out.resumed = RunFederation(config, kShards);
  ctx.verdict.Check(elsc::ListCheckpointSegments(config.ckpt.path, fp).empty(),
                    "clean completion left checkpoint segments behind", expected);
  std::filesystem::remove_all(dir);
  return out;
}

void RunFederationChaosResume(Context& ctx) {
  const elsc::ScaleConfig config = ChaosConfig(ctx.args.seed);
  NoteFederation(ctx, config);
  const uint64_t expected = FederationDeliveries(config);
  std::string first;
  auto stop_resume = [&] {
    StopResume sr = StopAndResume(ctx, config, kChaosStopWindow, expected);
    ctx.CheckFederation(sr.resumed, expected, &first);
    return sr;
  };
  // The uninterrupted run every resume must reproduce.
  auto control_run = [&] {
    FederationRun control = RunFederation(config, kShards);
    ctx.CheckFederation(control, expected, &first);
    ctx.verdict.Check(kChaosStopWindow < control.run.windows,
                      "the scenario ends before the stop window", expected);
    return control;
  };

  if (!ctx.args.trace) {
    const double start = NowSec();
    auto rep = [&] {
      const StopResume sr = stop_resume();
      ctx.values["deliveries_per_wall_s"].push_back(
          Ratio(sr.resumed.run.messages_delivered, sr.resumed.wall_s));
    };
    rep();
    ctx.values["peak_rss_mb"].push_back(PeakRssBytes() / (1024.0 * 1024.0));
    const FederationRun control = control_run();
    ctx.values["sim_throughput"].push_back(control.run.throughput);
    ctx.values["sched_cycles_per_call"].push_back(control.run.stats.sched.CyclesPerSchedule());
    Repeat(ctx.args.seconds - (NowSec() - start), 2, [&] {
      rep();
      ctx.values["setup_s"].push_back(FederationSetupSeconds(config, kShards));
    });
    return;
  }
  const FederationRun control = control_run();
  std::string probe_first;
  Repeat(ctx.args.seconds, 1, [&] {
    const StopResume sr = stop_resume();
    ctx.values["ckpt.stop_s"].push_back(sr.stop_s);
    ctx.values["ckpt.segment_bytes"].push_back(sr.segment_bytes);
    ctx.values["ckpt.replay_windows"].push_back(sr.stop_window);
    ctx.values["resume_s"].push_back(sr.resumed.wall_s);
    FederationLayers(ctx, sr.resumed);
    FederationTraceExtras(ctx, config, control, &first, &probe_first);
  });
}

// The first untraced result's digest, for pinning.
std::string DigestOnly(const Args& args) {
  if (args.workload == "volano_reg_4p") {
    return RunVolanoMachine(VolanoMachine(args.seed), VolanoChat(), false).digest;
  }
  if (args.workload == "webserver_o1_4p") {
    return RunWebserverMachine(WebMachine(args.seed), WebConfig(), false).digest;
  }
  if (args.workload == "federation_elsc") {
    return HashHex(RunFederation(FederationConfig(args.seed), kShards).signature);
  }
  return HashHex(RunFederation(ChaosConfig(args.seed), kShards).signature);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-digest") {
      args.print_digest = true;
      continue;
    }
    if (flag == "--list-metrics") {
      args.list_metrics = true;
      return args;
    }
    if (i + 1 >= argc) {
      throw std::runtime_error("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::runtime_error("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--golden") {
      args.golden = value;
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), args.workload) ==
      std::end(kWorkloads)) {
    throw std::runtime_error("unknown workload '" + args.workload + "'");
  }
  return args;
}

int Main(int argc, char** argv) {
  Context ctx;
  ctx.args = ParseArgs(argc, argv);
  const Args& args = ctx.args;
  if (args.list_metrics) {
    for (const char* workload : kWorkloads) {
      std::printf("workload %s\n", workload);
    }
    for (const MetricSpec& spec : kEndToEnd) {
      std::printf("end_to_end %s %s\n", spec.name, spec.unit);
    }
    for (const MetricSpec& spec : kPerLayer) {
      std::printf("per_layer %s %s\n", spec.name, spec.unit);
    }
    return 0;
  }
  if (args.print_digest) {
    std::printf("%s %llu %s\n", args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                DigestOnly(args).c_str());
    return 0;
  }
  const auto golden = LoadGolden(args.golden);
  const auto pin = golden.find({args.workload, args.seed});
  if (pin != golden.end()) {
    ctx.pinned = pin->second;
  }

  const double start = NowSec();
  if (args.workload == "volano_reg_4p") {
    const elsc::MachineConfig machine = VolanoMachine(args.seed);
    const elsc::VolanoConfig chat = VolanoChat();
    ctx.notes.push_back(elsc::StrFormat(
        "config: VolanoMark %d rooms x %d users x %d msgs, %s %s, machine seed %016llx",
        chat.rooms, chat.users_per_room, chat.messages_per_user, MachineLabel(machine).c_str(),
        elsc::SchedulerKindName(machine.scheduler),
        static_cast<unsigned long long>(machine.seed)));
    RunSingleMachine(
        ctx, [&](bool traced) { return RunVolanoMachine(machine, chat, traced); },
        [&] { return VolanoSetupSeconds(machine, chat); });
  } else if (args.workload == "webserver_o1_4p") {
    const elsc::MachineConfig machine = WebMachine(args.seed);
    const elsc::WebserverConfig web = WebConfig();
    ctx.notes.push_back(elsc::StrFormat(
        "config: webserver %d workers, %.1f req/s for %.0f sim-s, %s %s, machine seed %016llx",
        web.workers, web.arrival_rate_per_sec, elsc::CyclesToSec(web.duration),
        MachineLabel(machine).c_str(), elsc::SchedulerKindName(machine.scheduler),
        static_cast<unsigned long long>(machine.seed)));
    RunSingleMachine(
        ctx, [&](bool traced) { return RunWebserverMachine(machine, web, traced); },
        [&] { return WebserverSetupSeconds(machine, web); });
  } else if (args.workload == "federation_elsc") {
    RunFederationElsc(ctx);
  } else {
    RunFederationChaosResume(ctx);
  }

  ctx.notes.push_back(elsc::StrFormat(
      "error rate %.6g: %llu of %llu operations failed",
      Ratio(ctx.verdict.failed(), ctx.verdict.attempted()),
      static_cast<unsigned long long>(ctx.verdict.failed()),
      static_cast<unsigned long long>(ctx.verdict.attempted())));
  PrintReport(args.workload, args.seed, args.trace, NowSec() - start, ctx.notes,
              ctx.verdict.problems(), ctx.values);
  std::printf("%s\n", ResultJson(ctx.verdict.correct(), ctx.verdict.attempted(),
                                 ctx.verdict.failed(), args.trace, ctx.values)
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
