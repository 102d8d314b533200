// The sharded federation's failure model (src/api/scale.h +
// src/faults/fault_plan.h FederationFaultPlan): deterministic node
// crash/restart, lossy fabric, and the ack/retransmit recovery protocol.
//
// The load-bearing claims: (1) a chaos-armed run is exactly as deterministic
// as a fault-free one — bit-identical digests at shard counts 1/2/3/4 and
// byte-identical JSON at ELSC_BENCH_JOBS 1/2/4; (2) the recovery protocol
// has teeth — under crash + loss, retransmission strictly reduces
// deliveries_lost versus the no-retransmit control; (3) crashes conserve
// chat work — banked finished rooms plus re-run rooms add up to exactly the
// scenario's expected deliveries; (4) fault-free outputs carry no fault
// block at all (the byte-stability half of the contract lives in
// scale_test.cc's goldens, which must not change); (5) which thread claims
// which node never shows — 3 shards, and more shards than live nodes,
// match 1 shard, and a window watchdog trip folds the same failure
// whichever claiming thread it lands on.

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/api/scale.h"
#include "src/api/scale_ckpt.h"
#include "src/base/atomic_file.h"
#include "src/harness/supervisor.h"

namespace elsc {
namespace {

// Mirror of scale_test's TinyConfig: small enough for milliseconds, big
// enough that every moving part is exercised.
ScaleConfig TinyConfig() {
  ScaleConfig config;
  config.rooms = 4;
  config.rooms_per_node = 1;
  config.chat.users_per_room = 4;
  config.chat.messages_per_user = 4;
  config.seed = 7;
  return config;
}

uint64_t ExpectedDeliveries(const ScaleConfig& config) {
  return static_cast<uint64_t>(config.rooms) *
         static_cast<uint64_t>(config.chat.users_per_room) *
         static_cast<uint64_t>(config.chat.users_per_room) *
         static_cast<uint64_t>(config.chat.messages_per_user);
}

// The chaos scenario the determinism tests run: every node crashes once,
// early, and the fabric is moderately lossy — maximum lifecycle churn in a
// tiny scenario.
ScaleConfig ChaosConfig() {
  ScaleConfig config = TinyConfig();
  // Enough chat depth that every node is still alive in its crash window
  // (windows 2-5) — the crash-rate-1.0 tests below rely on that.
  config.chat.messages_per_user = 16;
  config.faults = FederationChaosPlan(/*seed=*/11);
  config.faults.node_crash_rate = 1.0;
  config.faults.crash_window_min = 2;
  config.faults.crash_window_span = 4;
  config.faults.down_windows_min = 1;
  config.faults.down_windows_span = 3;
  return config;
}

TEST(FederationFaultPlanTest, InjectionIsAPureFunctionOfTheConfig) {
  const FederationFaultPlan plan = FederationChaosPlan(42);
  const FederationFaultPlan again = FederationChaosPlan(42);
  for (int node = 0; node < 16; ++node) {
    EXPECT_EQ(plan.NodeCrashes(node), again.NodeCrashes(node));
    EXPECT_EQ(plan.CrashWindow(node), again.CrashWindow(node));
    EXPECT_EQ(plan.RestartWindow(node), again.RestartWindow(node));
    EXPECT_GT(plan.RestartWindow(node), plan.CrashWindow(node));
  }
  for (uint64_t seq = 1; seq <= 64; ++seq) {
    EXPECT_EQ(plan.DropMessage(0, 1, seq), again.DropMessage(0, 1, seq));
    EXPECT_EQ(plan.DuplicateMessage(0, 1, seq), again.DuplicateMessage(0, 1, seq));
  }
  // A different seed gives a different schedule somewhere in this range.
  const FederationFaultPlan other = FederationChaosPlan(43);
  bool diverged = false;
  for (int node = 0; node < 16 && !diverged; ++node) {
    diverged = plan.NodeCrashes(node) != other.NodeCrashes(node) ||
               plan.CrashWindow(node) != other.CrashWindow(node);
  }
  for (uint64_t seq = 1; seq <= 64 && !diverged; ++seq) {
    diverged = plan.DropMessage(0, 1, seq) != other.DropMessage(0, 1, seq);
  }
  EXPECT_TRUE(diverged);
  // Default-constructed plans are inert; the chaos preset is not.
  EXPECT_FALSE(FederationFaultPlan{}.Enabled());
  EXPECT_TRUE(plan.Enabled());
}

TEST(FederationTest, ChaosArmedRunCompletesWithCrashesAndRestarts) {
  const ScaleConfig config = ChaosConfig();
  const ScaleRun run = RunShardedVolano(config, 1);
  EXPECT_TRUE(run.completed);
  EXPECT_TRUE(run.fault_model);
  // Every node crashed once (crash rate 1.0) and came back.
  EXPECT_EQ(run.node_crashes, static_cast<uint64_t>(config.nodes()));
  EXPECT_EQ(run.node_restarts, run.node_crashes);
  EXPECT_GT(run.windows_degraded, 0u);
  // Crash/restart conserves chat work exactly: finished rooms are banked,
  // unfinished rooms re-run to completion.
  EXPECT_EQ(run.messages_delivered, ExpectedDeliveries(config));
  EXPECT_FALSE(run.stats.failed);
}

TEST(FederationTest, ChaosArmedDigestBitIdenticalAcrossShardCounts) {
  const ScaleConfig config = ChaosConfig();
  const ScaleRun one = RunShardedVolano(config, 1);
  ASSERT_TRUE(one.completed);
  const std::string golden = ScaleRunSignature(one);
  for (const int shards : {2, 3, 4}) {
    const ScaleRun run = RunShardedVolano(config, shards);
    EXPECT_EQ(run.digest, one.digest) << "shards=" << shards;
    EXPECT_EQ(ScaleRunSignature(run), golden) << "shards=" << shards;
  }
}

// Shards claim nodes from a shared cursor, so no shard count may matter,
// including 3, which divides neither this run's 8 nodes nor the chaos
// config's 4 (covered above).
TEST(FederationTest, FaultFreeDigestBitIdenticalAtThreeShards) {
  ScaleConfig config = TinyConfig();
  config.rooms = 8;
  const ScaleRun one = RunShardedVolano(config, 1);
  ASSERT_TRUE(one.completed);
  const ScaleRun three = RunShardedVolano(config, 3);
  EXPECT_EQ(three.shards, 3);
  EXPECT_EQ(ScaleRunSignature(three), ScaleRunSignature(one));
}

// More shards than live nodes: with gossip off each node folds as soon as
// its own chat drains, so the last two windows of this 12-node run have
// fewer live nodes than its 8 shards (a segment forced two windows before
// the end proves it), and some claiming threads find no node to advance.
TEST(FederationTest, MoreShardsThanLiveNodesMatchOneShard) {
  ScaleConfig config = TinyConfig();
  config.rooms = 12;
  config.chat.messages_per_user = 16;
  config.window = MsToCycles(2);  // Short windows spread the node folds.
  config.gossip_period = 0;
  const ScaleRun one = RunShardedVolano(config, 1);
  ASSERT_TRUE(one.completed);
  ASSERT_GT(one.windows, 2u);
  const ScaleRun eight = RunShardedVolano(config, 8);
  EXPECT_EQ(eight.shards, 8);
  EXPECT_EQ(ScaleRunSignature(eight), ScaleRunSignature(one));

  ScaleConfig probe = config;
  probe.ckpt.path = ::testing::TempDir() + "/elsc_fed_live_probe";
  probe.ckpt.every = 0;  // Forced-only: exactly one segment.
  probe.ckpt.stop_after_window = one.windows - 2;
  const uint64_t fp = ScaleConfigFingerprint(probe);
  RemoveCheckpointSegments(probe.ckpt.path, fp);
  EXPECT_FALSE(RunShardedVolano(probe, 8).completed);
  const auto segments = ListCheckpointSegments(probe.ckpt.path, fp);
  ASSERT_EQ(segments.size(), 1u);
  std::string contents;
  ASSERT_TRUE(ReadFileToString(segments[0].path, &contents));
  RemoveCheckpointSegments(probe.ckpt.path, fp);
  ScaleCheckpoint last;
  std::string error;
  ASSERT_TRUE(DecodeScaleCheckpoint(contents, &last, &error)) << error;
  EXPECT_LT(last.nodes.size(), 8u);
}

TEST(FederationTest, ChaosArmedJsonBitIdenticalAcrossShardAndJobCounts) {
  const std::vector<int> shard_counts = {1, 2, 4};
  auto run_cells = [&](int jobs) {
    SupervisorOptions options;  // Defaults: no watchdog, no journal.
    SupervisedRun<ScaleCell> run = RunSupervised(
        options, shard_counts.size(),
        [&](size_t i) {
          ScaleCell cell;
          cell.config = ChaosConfig();
          cell.run = RunShardedVolano(cell.config, shard_counts[i]);
          return cell;
        },
        CellCodec<ScaleCell>{}, jobs);
    EXPECT_TRUE(run.AllOk());
    return RenderScaleJson(run.results, /*seed=*/7);
  };
  const std::string jobs1 = run_cells(1);
  EXPECT_FALSE(jobs1.empty());
  EXPECT_NE(jobs1.find("\"failure_model\""), std::string::npos);
  EXPECT_EQ(run_cells(2), jobs1);
  EXPECT_EQ(run_cells(4), jobs1);
}

TEST(FederationTest, RetransmissionBeatsTheNoRetransmitControl) {
  // Heavy loss over a long, chatty run: many gossip rounds means many lost
  // beacons means many retransmit timers that actually get a chance to fire
  // before shutdown. No crashes — a transmitter's unacked buffer dies with
  // its incarnation, so crash-lost beacons are not what retransmission
  // repairs (loss is).
  ScaleConfig config = TinyConfig();
  config.chat.messages_per_user = 32;
  config.gossip_period = MsToCycles(5);
  config.faults.seed = 23;
  config.faults.loss_rate = 0.30;
  config.retransmit = true;
  const ScaleRun retx = RunShardedVolano(config, 2);
  EXPECT_TRUE(retx.completed);
  EXPECT_GT(retx.retransmits, 0u);

  ScaleConfig control_config = config;
  control_config.retransmit = false;
  const ScaleRun control = RunShardedVolano(control_config, 2);
  EXPECT_TRUE(control.completed);
  EXPECT_EQ(control.retransmits, 0u);

  // The teeth: 30% loss must cost the fire-and-forget control real
  // deliveries, and the recovery protocol must strictly beat it.
  EXPECT_GT(control.deliveries_lost, 0u);
  EXPECT_LT(retx.deliveries_lost, control.deliveries_lost);
}

TEST(FederationTest, LossyFabricCountsDropsByCause) {
  ScaleConfig config = TinyConfig();
  config.faults.seed = 5;
  config.faults.loss_rate = 0.25;
  config.faults.dup_rate = 0.25;
  const ScaleRun run = RunShardedVolano(config, 1);
  EXPECT_TRUE(run.completed);
  EXPECT_GT(run.fabric.dropped_loss, 0u);
  EXPECT_GT(run.fabric.duplicated, 0u);
  // Each duplicated delivery is discarded by the receiver's id check.
  EXPECT_GT(run.dup_discards, 0u);
  // Conservation over unique messages: everything emitted is accounted to
  // exactly one outcome.
  EXPECT_EQ(run.fabric.emitted,
            run.fabric.routed + run.fabric.refused + run.fabric.dropped_closed +
                run.fabric.dropped_loss + run.fabric.dropped_partition +
                run.fabric.dropped_crashed + run.fabric.dropped_lane_overflow);
}

TEST(FederationTest, FaultFreeOutputsCarryNoFaultBlock) {
  const ScaleRun run = RunShardedVolano(TinyConfig(), 1);
  EXPECT_FALSE(run.fault_model);
  const std::string sig = ScaleRunSignature(run);
  EXPECT_EQ(sig.find("crashes:"), std::string::npos);
  EXPECT_EQ(sig.find("failure:"), std::string::npos);
  std::vector<ScaleCell> cells(1);
  cells[0].config = TinyConfig();
  cells[0].run = run;
  const std::string json = RenderScaleJson(cells, 7);
  EXPECT_EQ(json.find("failure_model"), std::string::npos);
}

TEST(FederationTest, ArmedSignatureNamesTheAvailabilityFields) {
  const ScaleRun run = RunShardedVolano(ChaosConfig(), 1);
  const std::string sig = ScaleRunSignature(run);
  for (const char* field : {"crashes:", "restarts:", "degraded:", "lost:",
                            "retx:", "dupdrop:", "acks:", "goodput:"}) {
    EXPECT_NE(sig.find(field), std::string::npos) << field;
  }
}

TEST(FederationTest, WindowWatchdogFailsAStuckFederationDeterministically) {
  // A per-window wall-clock budget no real window can meet: the run must
  // fold into a completed=false result with the watchdog named as the
  // failure — not hang, not crash. Large rooms + a long window give the
  // engine enough events per window for the watchdog's rate-limited clock
  // check (every 4096 polls) to actually look at the clock. Every claiming
  // thread arms the watchdog, so above 1 shard the trip lands on the
  // coordinator's own claim loop, on a worker's, or on both; either way the
  // coordinator must drain the pool and fold the same failure.
  ScaleConfig config;
  config.rooms = 8;
  config.rooms_per_node = 2;
  config.chat.users_per_room = 8;
  config.chat.messages_per_user = 16;
  config.window = MsToCycles(200);
  config.seed = 7;
  config.window_wall_budget_sec = 1e-9;
  for (const int shards : {1, 2, 4}) {
    const ScaleRun run = RunShardedVolano(config, shards);
    EXPECT_EQ(run.shards, shards);
    EXPECT_FALSE(run.completed) << "shards=" << shards;
    EXPECT_TRUE(run.stats.failed) << "shards=" << shards;
    EXPECT_NE(run.stats.failure.find("federation watchdog"), std::string::npos)
        << run.stats.failure;
    EXPECT_NE(ScaleRunSignature(run).find("|failure:"), std::string::npos)
        << "shards=" << shards;
    // Partial per-node stats were folded, not discarded.
    EXPECT_GT(run.stats.machine.tasks_created, 0u) << "shards=" << shards;
  }
}

TEST(FederationTest, NegativeWindowBudgetDisablesTheWatchdog) {
  ScaleConfig config = TinyConfig();
  config.window_wall_budget_sec = -1.0;  // Force off, ignore the env.
  const ScaleRun run = RunShardedVolano(config, 1);
  EXPECT_TRUE(run.completed);
}

TEST(FederationTest, DeadlineFoldsPartialStatsIntoTheSignature) {
  ScaleConfig config = TinyConfig();
  config.deadline = config.window * 2;  // Far too tight for the chat.
  const ScaleRun run = RunShardedVolano(config, 1);
  EXPECT_FALSE(run.completed);
  // The partial per-node aggregates survive — the pre-failure-model code
  // dropped inbox/late-write counters and reported empty chat totals here.
  EXPECT_GT(run.stats.machine.tasks_created, 0u);
  EXPECT_GT(run.messages_sent, 0u);
  const std::string sig = ScaleRunSignature(run);
  EXPECT_NE(sig.find("|failure:scale deadline exceeded"), std::string::npos)
      << sig;
}

}  // namespace
}  // namespace elsc
