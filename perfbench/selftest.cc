// Self-tests of the benchmark's own machinery, on tiny configs:
//
//  * decorator transparency: for every scheduler backend, a traced run
//    (TimedScheduler + TimedBehavior + event spans) and the benchmark's
//    untraced run both reproduce the library facade's RunStats exactly,
//    including the counters the digest leaves out (percpu_lock_*), which the
//    Machine writes on the outer decorator and the decorator must fold;
//  * span arithmetic: a parent's self time excludes its children;
//  * metric names and units fit the benchmark format's limits.
//
// Prints one PASS/FAIL line per check; exits non-zero on any failure.
//
//   perfbench_selftest

#include <cstdio>
#include <regex>
#include <set>
#include <string>
#include <thread>

#include "perfbench/harness.h"
#include "perfbench/metrics.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) {
    ++failures;
  }
}

void DecoratorIsTransparent(elsc::SchedulerKind kind) {
  const std::string name = elsc::SchedulerKindName(kind);
  const elsc::MachineConfig machine =
      elsc::MakeMachineConfig(elsc::KernelConfig::kSmp4, kind, /*seed=*/11);

  elsc::VolanoConfig chat;
  chat.rooms = 2;
  chat.users_per_room = 5;
  chat.messages_per_user = 4;
  const elsc::VolanoRun facade = elsc::RunVolano(machine, chat);
  const MachineRun plain = RunVolanoMachine(machine, chat, /*traced=*/false);
  const MachineRun traced = RunVolanoMachine(machine, chat, /*traced=*/true);
  const std::string want = elsc::EncodeRunStats(facade.stats);
  Expect(facade.result.completed && plain.completed && traced.completed,
         name + ": tiny volano completes");
  Expect(elsc::EncodeRunStats(plain.stats) == want, name + ": untraced run == facade");
  Expect(elsc::EncodeRunStats(traced.stats) == want, name + ": traced run == facade");
  Expect(traced.digest == plain.digest, name + ": traced digest == untraced digest");
  Expect(traced.wrapped > 0 && traced.wrapped == traced.wrapped_before_dispatch,
         name + ": every task wrapped before its first dispatch");
  const auto& pick = traced.layers[static_cast<size_t>(Layer::kPick)];
  Expect(pick.calls == traced.stats.sched.schedule_calls,
         name + ": one pick span per schedule() call (" + std::to_string(pick.calls) + " vs " +
             std::to_string(traced.stats.sched.schedule_calls) + ")");
  if (kind == elsc::SchedulerKind::kMultiQueue || kind == elsc::SchedulerKind::kO1) {
    // Per-CPU-queue backends: the Machine writes these on the decorator.
    Expect(facade.stats.sched.percpu_lock_acquisitions > 0 &&
               traced.stats.sched.percpu_lock_acquisitions ==
                   facade.stats.sched.percpu_lock_acquisitions &&
               traced.stats.sched.percpu_lock_wait_cycles ==
                   facade.stats.sched.percpu_lock_wait_cycles,
           name + ": percpu_lock_* counters folded");
  }

  elsc::WebserverConfig web = elsc::OverloadBaseConfig(elsc::SecToCycles(2));
  web.arrival_rate_per_sec = 0.9 * elsc::WebserverSaturationRate(web, 4);
  const elsc::WebserverRun web_facade = elsc::RunWebserver(machine, web);
  const MachineRun web_traced = RunWebserverMachine(machine, web, /*traced=*/true);
  Expect(elsc::EncodeRunStats(web_traced.stats) == elsc::EncodeRunStats(web_facade.stats),
         name + ": traced webserver == facade");
}

void SpansSubtractChildren() {
  Tracer tracer;
  tracer.Reset();
  tracer.Begin();
  tracer.Begin();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  tracer.End(Layer::kPick);
  tracer.End(Layer::kSegment);
  tracer.End(Layer::kEvent);
  const LayerTotals event = tracer.totals(Layer::kEvent);
  const LayerTotals segment = tracer.totals(Layer::kSegment);
  const LayerTotals pick = tracer.totals(Layer::kPick);
  Expect(pick.total_ns >= 2'000'000 && pick.self_ns == pick.total_ns,
         "spans: a leaf's self time is its duration");
  Expect(segment.self_ns == segment.total_ns - pick.total_ns,
         "spans: a parent's self time excludes its child");
  Expect(event.self_ns == event.total_ns - segment.total_ns,
         "spans: only direct children are subtracted");
}

void MetricNamesFitTheFormat() {
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> seen;
  bool ok = true;
  for (const auto* list : {&kEndToEnd, &kPerLayer}) {
    for (const MetricSpec& spec : *list) {
      ok = ok && std::regex_match(spec.name, name_re) && std::regex_match(spec.unit, unit_re) &&
           seen.insert(spec.name).second;
    }
  }
  Expect(ok, "metric names match [A-Za-z0-9_.-]+, units fit, no name repeats");
  Expect(!kEndToEnd.empty() && kEndToEnd.size() <= 16, "at most 16 end-to-end metrics");
  Expect(!kPerLayer.empty() && kPerLayer.size() <= 128, "at most 128 per-layer metrics");
}

}  // namespace
}  // namespace perfbench

int main() {
  for (const elsc::SchedulerKind kind : elsc::AllSchedulerKinds()) {
    perfbench::DecoratorIsTransparent(kind);
  }
  perfbench::SpansSubtractChildren();
  perfbench::MetricNamesFitTheFormat();
  std::printf("%s\n", perfbench::failures == 0 ? "selftest passed" : "selftest FAILED");
  return perfbench::failures == 0 ? 0 : 1;
}
