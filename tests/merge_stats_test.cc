// MergeRunStats (src/api/simulation.h) algebra: the streaming-aggregation
// primitive every folding path relies on — the sharded runner folds nodes at
// barriers in node-index order, and checkpoint restore re-installs a folded
// aggregate and keeps folding into it. That only reproduces an
// uninterrupted run if merging is associative with a default-constructed
// identity, which is what this suite pins (via EncodeRunStats equality, the
// same byte-exact lens the checkpoint codec uses).

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <set>
#include <string>

#include "gtest/gtest.h"
#include "src/api/simulation.h"

namespace elsc {
namespace {

// Distinct, fully-populated operands: every counter class (sched, machine,
// events, faults, audit, memory), both max-folded fields, and the
// failed/failure verdict.
RunStats Sample(uint64_t base, bool failed, const std::string& failure) {
  RunStats s;
  s.sched.schedule_calls = base + 1;
  s.sched.lock_wait_cycles = base * 3;
  s.sched.wakeups = base + 7;
  s.machine.ticks = base * 11;
  s.machine.context_switches = base + 13;
  s.machine.peak_live_tasks = base % 17;
  s.events.scheduled = base + 19;
  s.events.fired = base + 18;
  s.events.max_heap_depth = base % 23;   // Max-folded.
  s.faults.tick_drops = base % 5;
  s.audit.audits = base + 29;
  s.memory.task_arena_bytes = base * 31;
  s.memory.task_arena_chunks = base % 7;
  s.memory.peak_live_sockets = base % 37;
  s.elapsed_sec = static_cast<double>(base % 41) * 0.25;  // Max-folded.
  s.failed = failed;
  s.failure = failure;
  return s;
}

RunStats Merge(const RunStats& a, const RunStats& b) {
  RunStats out = a;
  MergeRunStats(&out, b);
  return out;
}

TEST(MergeStatsTest, DefaultConstructedIsTheIdentity) {
  const RunStats a = Sample(100, true, "node 3: watchdog");
  const std::string before = EncodeRunStats(a);
  // Right identity.
  EXPECT_EQ(EncodeRunStats(Merge(a, RunStats{})), before);
  // Left identity.
  EXPECT_EQ(EncodeRunStats(Merge(RunStats{}, a)), before);
}

TEST(MergeStatsTest, MergeIsAssociative) {
  const RunStats a = Sample(3, false, "");
  const RunStats b = Sample(1000, true, "b failed first");
  const RunStats c = Sample(77, true, "c failed too");
  EXPECT_EQ(EncodeRunStats(Merge(Merge(a, b), c)),
            EncodeRunStats(Merge(a, Merge(b, c))));
  // And for a longer left-fold vs right-fold chain.
  const RunStats d = Sample(999983, false, "");
  EXPECT_EQ(EncodeRunStats(Merge(Merge(Merge(a, b), c), d)),
            EncodeRunStats(Merge(a, Merge(b, Merge(c, d)))));
}

TEST(MergeStatsTest, CountersSumAndPeaksFoldAsDocumented) {
  const RunStats a = Sample(10, false, "");
  const RunStats b = Sample(20, false, "");
  const RunStats merged = Merge(a, b);
  // Counters sum.
  EXPECT_EQ(merged.sched.schedule_calls,
            a.sched.schedule_calls + b.sched.schedule_calls);
  EXPECT_EQ(merged.machine.ticks, a.machine.ticks + b.machine.ticks);
  EXPECT_EQ(merged.memory.task_arena_bytes,
            a.memory.task_arena_bytes + b.memory.task_arena_bytes);
  // Per-machine peaks sum too (total-footprint bound for coexisting nodes).
  EXPECT_EQ(merged.machine.peak_live_tasks,
            a.machine.peak_live_tasks + b.machine.peak_live_tasks);
  // max_heap_depth and elapsed_sec take the max.
  EXPECT_EQ(merged.events.max_heap_depth,
            std::max(a.events.max_heap_depth, b.events.max_heap_depth));
  EXPECT_EQ(merged.elapsed_sec, std::max(a.elapsed_sec, b.elapsed_sec));
}

TEST(MergeStatsTest, FailureVerdictOrsAndFirstDiagnosisWins) {
  const RunStats clean = Sample(5, false, "");
  const RunStats broken = Sample(6, true, "node 2: deadline");
  const RunStats also_broken = Sample(7, true, "node 5: deadline");

  EXPECT_FALSE(Merge(clean, clean).failed);
  EXPECT_TRUE(Merge(clean, broken).failed);
  EXPECT_EQ(Merge(clean, broken).failure, "node 2: deadline");
  EXPECT_TRUE(Merge(broken, clean).failed);
  EXPECT_EQ(Merge(broken, clean).failure, "node 2: deadline");
  // Both failed: the fold order picks the first non-empty diagnosis, which
  // is exactly why every fold site merges in node-index order.
  EXPECT_EQ(Merge(broken, also_broken).failure, "node 2: deadline");
}

TEST(MergeStatsTest, CounterOverflowWrapsWithoutUB) {
  // uint64 counters are modular: merging near-max values must wrap silently
  // (unsigned arithmetic), not trap — a year-long soak on a huge federation
  // is allowed to tick cycles_in_schedule past 2^64.
  RunStats a;
  a.sched.cycles_in_schedule = UINT64_MAX - 1;
  a.machine.ticks = UINT64_MAX;
  RunStats b;
  b.sched.cycles_in_schedule = 3;
  b.machine.ticks = 2;
  const RunStats merged = Merge(a, b);
  EXPECT_EQ(merged.sched.cycles_in_schedule, 1u);
  EXPECT_EQ(merged.machine.ticks, 1u);
  // The wrapped aggregate still round-trips through the codec exactly.
  RunStats decoded;
  ASSERT_TRUE(DecodeRunStats(EncodeRunStats(merged), &decoded));
  EXPECT_EQ(EncodeRunStats(decoded), EncodeRunStats(merged));
}

TEST(MergeStatsTest, MergeMatchesCheckpointRestoreShape) {
  // The restore path: encode a partial aggregate, decode it into a fresh
  // RunStats, keep folding. Must equal the never-interrupted fold.
  const RunStats a = Sample(11, false, "");
  const RunStats b = Sample(22, true, "node 1: wedged");
  const RunStats c = Sample(33, false, "");
  const RunStats uninterrupted = Merge(Merge(a, b), c);

  RunStats resumed;
  ASSERT_TRUE(DecodeRunStats(EncodeRunStats(Merge(a, b)), &resumed));
  MergeRunStats(&resumed, c);
  EXPECT_EQ(EncodeRunStats(resumed), EncodeRunStats(uninterrupted));
}

// ---------------------------------------------------------------------------
// Every counter through every consumer. The RunStats field list in
// src/api/simulation.cc drives the codec, the merge and the digest; these
// tests view each stats group as a flat array of uint64_t instead of naming
// its fields, so a field missing from that list shows up as a lost value.
// Adding a field to a group breaks the static_asserts below: extend the
// count and, if the digest must not carry it, NotDigested().

constexpr size_t kSchedN = 21;
constexpr size_t kMachineN = 12;
constexpr size_t kEventsN = 6;
constexpr size_t kFaultsN = 12;
constexpr size_t kAuditN = 9;
constexpr size_t kMemoryN = 3;
static_assert(sizeof(SchedStats) == kSchedN * 8);
static_assert(sizeof(MachineStats) == kMachineN * 8);
static_assert(sizeof(EventQueueStats) == kEventsN * 8);
static_assert(sizeof(FaultStats) == kFaultsN * 8);
static_assert(sizeof(AuditStats) == kAuditN * 8);
static_assert(sizeof(MemoryStats) == kMemoryN * 8);

// Offsets of each group's first counter in the flat array.
constexpr size_t kSchedAt = 0;
constexpr size_t kMachineAt = kSchedAt + kSchedN;
constexpr size_t kEventsAt = kMachineAt + kMachineN;
constexpr size_t kFaultsAt = kEventsAt + kEventsN;
constexpr size_t kAuditAt = kFaultsAt + kFaultsN;
constexpr size_t kMemoryAt = kAuditAt + kAuditN;
constexpr size_t kCounters = kMemoryAt + kMemoryN;
using Counters = std::array<uint64_t, kCounters>;

constexpr size_t kMaxHeapDepth =
    kEventsAt + offsetof(EventQueueStats, max_heap_depth) / 8;

// The counters RunStatsDigest leaves out (its format predates them).
const std::set<size_t>& NotDigested() {
  static const std::set<size_t> fields = [] {
    std::set<size_t> s = {
        kSchedAt + offsetof(SchedStats, percpu_lock_acquisitions) / 8,
        kSchedAt + offsetof(SchedStats, percpu_lock_contended) / 8,
        kSchedAt + offsetof(SchedStats, percpu_lock_hold_cycles) / 8,
        kSchedAt + offsetof(SchedStats, percpu_lock_wait_cycles) / 8,
        kSchedAt + offsetof(SchedStats, double_locks) / 8,
        kSchedAt + offsetof(SchedStats, load_balance_calls) / 8,
        kSchedAt + offsetof(SchedStats, pull_migrations) / 8,
        kSchedAt + offsetof(SchedStats, array_swaps) / 8,
        kMachineAt + offsetof(MachineStats, peak_live_tasks) / 8,
        kFaultsAt + offsetof(FaultStats, conn_resets) / 8,
        kFaultsAt + offsetof(FaultStats, conn_half_opens) / 8,
        kFaultsAt + offsetof(FaultStats, slow_peer_windows) / 8,
        kFaultsAt + offsetof(FaultStats, reconnect_storms) / 8,
    };
    for (size_t i = kMemoryAt; i < kCounters; ++i) {
      s.insert(i);
    }
    return s;
  }();
  return fields;
}

template <size_t N, typename Group>
void Unpack(const Counters& c, size_t at, Group* group) {
  std::array<uint64_t, N> values{};
  std::copy_n(c.begin() + static_cast<std::ptrdiff_t>(at), N, values.begin());
  *group = std::bit_cast<Group>(values);
}

template <size_t N, typename Group>
void Pack(const Group& group, size_t at, Counters* c) {
  const auto values = std::bit_cast<std::array<uint64_t, N>>(group);
  std::copy(values.begin(), values.end(), c->begin() + static_cast<std::ptrdiff_t>(at));
}

RunStats FromCounters(const Counters& c) {
  RunStats s;
  Unpack<kSchedN>(c, kSchedAt, &s.sched);
  Unpack<kMachineN>(c, kMachineAt, &s.machine);
  Unpack<kEventsN>(c, kEventsAt, &s.events);
  Unpack<kFaultsN>(c, kFaultsAt, &s.faults);
  Unpack<kAuditN>(c, kAuditAt, &s.audit);
  Unpack<kMemoryN>(c, kMemoryAt, &s.memory);
  return s;
}

Counters ToCounters(const RunStats& s) {
  Counters c{};
  Pack<kSchedN>(s.sched, kSchedAt, &c);
  Pack<kMachineN>(s.machine, kMachineAt, &c);
  Pack<kEventsN>(s.events, kEventsAt, &c);
  Pack<kFaultsN>(s.faults, kFaultsAt, &c);
  Pack<kAuditN>(s.audit, kAuditAt, &c);
  Pack<kMemoryN>(s.memory, kMemoryAt, &c);
  return c;
}

// Distinct nonzero values, one per counter.
Counters Distinct(uint64_t seed) {
  Counters c{};
  for (size_t i = 0; i < kCounters; ++i) {
    c[i] = seed * 1000003 + (i + 1) * 0x9e3779b97f4aULL;
  }
  return c;
}

TEST(RunStatsFieldsTest, EveryCounterSurvivesEncodeDecode) {
  RunStats stats = FromCounters(Distinct(1));
  stats.elapsed_sec = 12.375;
  stats.failed = true;
  stats.failure = "node 4: every field";
  RunStats decoded;
  ASSERT_TRUE(DecodeRunStats(EncodeRunStats(stats), &decoded));
  const Counters want = Distinct(1);
  const Counters got = ToCounters(decoded);
  for (size_t i = 0; i < kCounters; ++i) {
    EXPECT_EQ(got[i], want[i]) << "counter " << i << " lost in the codec";
  }
  EXPECT_EQ(decoded.elapsed_sec, stats.elapsed_sec);
  EXPECT_TRUE(decoded.failed);
  EXPECT_EQ(decoded.failure, stats.failure);

  // The VolanoRun codec carries the same payload behind its result fields.
  VolanoRun run;
  run.stats = stats;
  run.result.messages_delivered = 77;
  VolanoRun run_decoded;
  ASSERT_TRUE(DecodeVolanoRun(EncodeVolanoRun(run), &run_decoded));
  EXPECT_EQ(ToCounters(run_decoded.stats), want);
  EXPECT_EQ(run_decoded.result.messages_delivered, 77u);
  EXPECT_EQ(run_decoded.stats.failure, stats.failure);
}

TEST(RunStatsFieldsTest, EveryCounterSumsExceptMaxHeapDepth) {
  const Counters a = Distinct(3);
  Counters b = Distinct(5);
  b[kMaxHeapDepth] = a[kMaxHeapDepth] / 2;  // max != sum and max != b.
  RunStats merged = FromCounters(a);
  MergeRunStats(&merged, FromCounters(b));
  const Counters got = ToCounters(merged);
  for (size_t i = 0; i < kCounters; ++i) {
    const uint64_t want = i == kMaxHeapDepth ? std::max(a[i], b[i]) : a[i] + b[i];
    EXPECT_EQ(got[i], want) << "counter " << i << " folded wrongly";
  }
}

TEST(RunStatsFieldsTest, DigestCarriesExactlyThePinnedSubset) {
  const Counters base = Distinct(7);
  const std::string digest = RunStatsDigest(FromCounters(base));
  EXPECT_EQ(digest.find("memory"), std::string::npos);
  for (size_t i = 0; i < kCounters; ++i) {
    Counters changed = base;
    changed[i] += 1;
    const bool carried = NotDigested().count(i) == 0;
    EXPECT_EQ(RunStatsDigest(FromCounters(changed)) != digest, carried)
        << "counter " << i << (carried ? " missing from" : " leaked into")
        << " the digest";
  }
}

}  // namespace
}  // namespace elsc
