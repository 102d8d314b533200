// Window-granular checkpoint/restore (src/api/scale_ckpt.h): the
// kill-and-resume determinism contract.
//
// The load-bearing tests are the resume-equality ones: a federation stopped
// at an arbitrary window barrier (the in-process stand-in for SIGKILL) and
// resumed in a fresh run must produce the exact ScaleRunSignature of an
// uninterrupted run — at shard counts 1/2/4, under the chaos fault plan,
// and across multi-segment fallback when the newest segment is corrupt.
// scripts/ci_supervised.sh drives the same drill through a real process
// kill (ELSC_SCALE_INJECT_KILL) and byte-compares the bench JSON.

#include "src/api/scale_ckpt.h"

#include <cstdio>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/api/scale.h"
#include "src/base/atomic_file.h"
#include "src/base/fnv.h"
#include "src/harness/shutdown.h"

namespace elsc {
namespace {

// Same shape as scale_test.cc's TinyConfig: 4 nodes, gossip on, enough
// windows that mid-run stop points exist.
ScaleConfig TinyConfig() {
  ScaleConfig config;
  config.rooms = 4;
  config.rooms_per_node = 1;
  config.chat.users_per_room = 4;
  config.chat.messages_per_user = 4;
  config.seed = 7;
  return config;
}

ScaleConfig ChaosConfig() {
  ScaleConfig config = TinyConfig();
  config.chat.messages_per_user = 6;  // Enough windows for crashes to land.
  config.faults = FederationChaosPlan(/*seed=*/21);
  // Guarantee crashes on this tiny scenario (the preset's 0.5 rate can miss
  // all 4 nodes at some seeds): every node crashes early and restarts.
  config.faults.node_crash_rate = 1.0;
  config.faults.crash_window_min = 2;
  config.faults.crash_window_span = 4;
  config.faults.down_windows_min = 1;
  config.faults.down_windows_span = 3;
  return config;
}

// A fresh per-test segment prefix: fingerprint-named segments from a
// previous (crashed) test run must not leak into this one.
std::string FreshPrefix(const ScaleConfig& config, const std::string& name) {
  const std::string prefix = ::testing::TempDir() + "/elsc_ckpt_" + name;
  RemoveCheckpointSegments(prefix, ScaleConfigFingerprint(config));
  return prefix;
}

// Literal goldens recorded before the federation refactor: a change that
// shifts the digest identically at every shard count slips past the
// cross-shard comparisons, but not past these.
constexpr char kTinyGoldenSignature[] =
    "scale:c841c69f52733884|nodes:4|windows:6|sent:64|delivered:256|"
    "beacons:4/4|drops:0+0|peak_tasks:67|peak_arena:98368|"
    "elapsed:0x1.eb851eb851eb8p-5|completed:1";
constexpr char kChaosGoldenSignature[] =
    "scale:943b2a960e3fe830|nodes:4|windows:13|sent:96|delivered:384|"
    "beacons:9/8|drops:0+0|peak_tasks:66|peak_arena:98368|"
    "elapsed:0x1.0a3d70a3d70a4p-3|completed:1|crashes:3|restarts:3|"
    "degraded:4|lost:1|retx:7+0|dupdrop:5|acks:8/5|"
    "goodput:0x1.713b13b13b13bp+11";
// FNV-1a 64 of the exact bytes of the one segment a stop_after_window = 3
// run writes: pins the v1 segment format, record order and all.
constexpr uint64_t kTinySegmentW3Fnv = 0x649e7218abdcaf9fULL;
constexpr uint64_t kChaosSegmentW3Fnv = 0x3d27331693deddb3ULL;

uint64_t SegmentFnvAtWindow3(ScaleConfig config, const std::string& name,
                             int shards) {
  config.ckpt.path = FreshPrefix(config, name);
  config.ckpt.every = 0;  // Forced-only: exactly one segment.
  config.ckpt.stop_after_window = 3;
  EXPECT_FALSE(RunShardedVolano(config, shards).completed);
  const uint64_t fp = ScaleConfigFingerprint(config);
  const auto segments = ListCheckpointSegments(config.ckpt.path, fp);
  std::string contents;
  EXPECT_EQ(segments.size(), 1u);
  if (!segments.empty()) {
    EXPECT_TRUE(ReadFileToString(segments[0].path, &contents));
  }
  RemoveCheckpointSegments(config.ckpt.path, fp);
  return Fnv1a64(contents);
}

TEST(ScaleCkptTest, GoldenSignaturesArePinned) {
  for (const int shards : {1, 2}) {
    EXPECT_EQ(ScaleRunSignature(RunShardedVolano(TinyConfig(), shards)),
              kTinyGoldenSignature)
        << "shards=" << shards;
    EXPECT_EQ(ScaleRunSignature(RunShardedVolano(ChaosConfig(), shards)),
              kChaosGoldenSignature)
        << "shards=" << shards;
  }
}

TEST(ScaleCkptTest, SegmentBytesArePinned) {
  for (const int shards : {1, 2}) {
    EXPECT_EQ(SegmentFnvAtWindow3(TinyConfig(), "pin_tiny", shards),
              kTinySegmentW3Fnv)
        << std::hex << "shards=" << shards;
    EXPECT_EQ(SegmentFnvAtWindow3(ChaosConfig(), "pin_chaos", shards),
              kChaosSegmentW3Fnv)
        << std::hex << "shards=" << shards;
  }
}

TEST(ScaleCkptTest, FingerprintCoversScenarioNotExecution) {
  const ScaleConfig base = TinyConfig();
  const uint64_t fp = ScaleConfigFingerprint(base);

  // Execution knobs do not move the fingerprint: the same scenario resumed
  // with a different shard count / wall budget / cadence must still match
  // its segments.
  ScaleConfig exec = base;
  exec.window_wall_budget_sec = 9.0;
  exec.ckpt.path = "/tmp/elsewhere";
  exec.ckpt.every = 1;
  exec.ckpt.stop_after_window = 3;
  EXPECT_EQ(ScaleConfigFingerprint(exec), fp);

  // Every behavior-shaping axis does.
  ScaleConfig seed = base;
  seed.seed = 8;
  EXPECT_NE(ScaleConfigFingerprint(seed), fp);
  ScaleConfig shape = base;
  shape.rooms = 5;
  EXPECT_NE(ScaleConfigFingerprint(shape), fp);
  ScaleConfig chat = base;
  chat.chat.messages_per_user = 5;
  EXPECT_NE(ScaleConfigFingerprint(chat), fp);
  ScaleConfig faults = base;
  faults.faults = FederationChaosPlan(21);
  EXPECT_NE(ScaleConfigFingerprint(faults), fp);
}

TEST(ScaleCkptTest, StopAfterWindowWritesAForcedSegment) {
  ScaleConfig config = TinyConfig();
  config.ckpt.path = FreshPrefix(config, "forced");
  config.ckpt.every = 0;  // Forced-only: no cadence segments.
  config.ckpt.stop_after_window = 2;
  const ScaleRun partial = RunShardedVolano(config, 1);
  EXPECT_FALSE(partial.completed);

  const uint64_t fp = ScaleConfigFingerprint(config);
  const auto segments = ListCheckpointSegments(config.ckpt.path, fp);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].window, 2u);
  RemoveCheckpointSegments(config.ckpt.path, fp);
}

// The tentpole contract: stop at a window, resume in a fresh run, compare
// the full signature against an uninterrupted control — at several stop
// points and every shard count the golden-digest suite pins.
TEST(ScaleCkptTest, ResumeMatchesUninterruptedRunAtEveryShardCount) {
  const ScaleConfig control_config = TinyConfig();
  const ScaleRun control = RunShardedVolano(control_config, 1);
  ASSERT_TRUE(control.completed);
  ASSERT_GT(control.windows, 3u);
  const std::string control_sig = ScaleRunSignature(control);

  // Every window 1..W-1 at shards 1 and 2 (plus shard 4 at the first and
  // last), so every restore transition — router close, inbox EOF — is
  // replayed from a segment at least once.
  for (uint64_t stop = 1; stop < control.windows; ++stop) {
    for (const int shards : {1, 2, 4}) {
      if (shards == 4 && stop != 1 && stop != control.windows - 1) {
        continue;
      }
      ScaleConfig config = TinyConfig();
      config.ckpt.path = FreshPrefix(
          config, "resume_w" + std::to_string(stop) + "_s" + std::to_string(shards));
      config.ckpt.every = 1;
      config.ckpt.stop_after_window = stop;
      const ScaleRun partial = RunShardedVolano(config, shards);
      EXPECT_FALSE(partial.completed);

      config.ckpt.stop_after_window = 0;
      const ScaleRun resumed = RunShardedVolano(config, shards);
      EXPECT_TRUE(resumed.completed);
      EXPECT_EQ(ScaleRunSignature(resumed), control_sig)
          << "stop=" << stop << " shards=" << shards;

      // Clean completion deletes the segments: a finished scenario can never
      // resurrect from stale state.
      EXPECT_TRUE(ListCheckpointSegments(config.ckpt.path,
                                         ScaleConfigFingerprint(config))
                      .empty());
    }
  }
}

TEST(ScaleCkptTest, ChaosScenarioResumesBitIdentical) {
  const ScaleConfig control_config = ChaosConfig();
  const ScaleRun control = RunShardedVolano(control_config, 2);
  ASSERT_GT(control.windows, 4u);
  ASSERT_GT(control.node_crashes, 0u);  // The plan actually bit.
  const std::string control_sig = ScaleRunSignature(control);

  // Crashed/restarted/down nodes cross checkpoint boundaries here: the
  // carried-stats, boot-snapshot, and down-node paths all execute. Stopping
  // at every window replays every crash, down window and restart.
  for (uint64_t stop = 1; stop < control.windows; ++stop) {
    for (const int shards : {1, 2}) {
      ScaleConfig config = ChaosConfig();
      config.ckpt.path = FreshPrefix(
          config, "chaos_w" + std::to_string(stop) + "_s" + std::to_string(shards));
      config.ckpt.every = 1;
      config.ckpt.stop_after_window = stop;
      const ScaleRun partial = RunShardedVolano(config, shards);
      EXPECT_FALSE(partial.completed);

      config.ckpt.stop_after_window = 0;
      const ScaleRun resumed = RunShardedVolano(config, shards);
      EXPECT_EQ(ScaleRunSignature(resumed), control_sig)
          << "stop=" << stop << " shards=" << shards;
    }
  }
}

// ChaosScenarioResumesBitIdentical at 4 shards: four threads share each
// restore replay, and scripts/ci_sanitize.sh runs this suite.
TEST(ScaleCkptTest, ChaosScenarioResumesBitIdenticalAtFourShards) {
  const ScaleRun control = RunShardedVolano(ChaosConfig(), 4);
  ASSERT_GT(control.windows, 4u);
  ASSERT_GT(control.node_crashes, 0u);
  const std::string control_sig = ScaleRunSignature(control);
  EXPECT_EQ(control_sig, kChaosGoldenSignature);

  for (uint64_t stop = 1; stop < control.windows; ++stop) {
    ScaleConfig config = ChaosConfig();
    config.ckpt.path = FreshPrefix(config, "chaos4_w" + std::to_string(stop));
    config.ckpt.every = 1;
    config.ckpt.stop_after_window = stop;
    EXPECT_FALSE(RunShardedVolano(config, 4).completed);

    config.ckpt.stop_after_window = 0;
    const ScaleRun resumed = RunShardedVolano(config, 4);
    EXPECT_EQ(ScaleRunSignature(resumed), control_sig) << "stop=" << stop;
  }
}

// Post-replay verification has teeth: a segment whose replayed node does
// not reproduce its stored verification line is rejected, whichever thread
// replayed that node, even though every other check on it passes. The
// resumed signature alone cannot show this (the older segment and the
// tampered one resume to the same answer), so the stderr log is checked for
// the rejection and for the fallback.
TEST(ScaleCkptTest, TamperedVerifyLineRejectsTheSegmentAtEveryShardCount) {
  const std::string control_sig = ScaleRunSignature(RunShardedVolano(TinyConfig(), 1));

  for (const int shards : {1, 2, 4}) {
    ScaleConfig config = TinyConfig();
    config.ckpt.path = FreshPrefix(config, "verify_s" + std::to_string(shards));
    config.ckpt.every = 1;
    config.ckpt.keep = 2;
    config.ckpt.stop_after_window = 3;
    EXPECT_FALSE(RunShardedVolano(config, shards).completed);

    const uint64_t fp = ScaleConfigFingerprint(config);
    const auto segments = ListCheckpointSegments(config.ckpt.path, fp);
    ASSERT_EQ(segments.size(), 2u);
    std::string contents;
    ASSERT_TRUE(ReadFileToString(segments[0].path, &contents));
    ScaleCheckpoint c;
    std::string error;
    ASSERT_TRUE(DecodeScaleCheckpoint(contents, &c, &error)) << error;
    // The last live node in index order: replay must check every node, not
    // stop at the first one.
    CkptNode* last_live = nullptr;
    for (CkptNode& cn : c.nodes) {
      if (cn.state == 1) {
        last_live = &cn;
      }
    }
    ASSERT_NE(last_live, nullptr);
    last_live->verify += "|tampered";
    // Re-encoding re-seals the checksum: only replay can catch this.
    ASSERT_TRUE(AtomicWriteFile(segments[0].path, EncodeScaleCheckpoint(c), nullptr));

    config.ckpt.stop_after_window = 0;
    ::testing::internal::CaptureStderr();
    const ScaleRun resumed = RunShardedVolano(config, shards);
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("rejected checkpoint " + segments[0].path +
                       ": restore verification failed"),
              std::string::npos)
        << "shards=" << shards << "\n" << log;
    EXPECT_NE(log.find("resumed from " + segments[1].path), std::string::npos)
        << "shards=" << shards << "\n" << log;
    EXPECT_TRUE(resumed.completed);
    EXPECT_EQ(ScaleRunSignature(resumed), control_sig) << "shards=" << shards;
  }
}

// A wall-clock budget no replay can meet, on a segment written without
// one: every thread replaying nodes arms the watchdog, and a trip there
// fails the run like a window trip does. It is a host-time failure, not a
// bad segment: the segment is neither rejected nor deleted, and the
// deadline never escapes the federation.
TEST(ScaleCkptTest, ReplayWatchdogFailsTheRunAndKeepsTheSegment) {
  // federation_test's stuck-federation shape: enough events per node that
  // every claiming thread's rate-limited clock check runs during replay.
  ScaleConfig config;
  config.rooms = 8;
  config.rooms_per_node = 2;
  config.chat.users_per_room = 8;
  config.chat.messages_per_user = 16;
  config.window = MsToCycles(200);
  config.seed = 7;
  config.window_wall_budget_sec = -1.0;  // Off while writing the segment.
  config.ckpt.path = FreshPrefix(config, "replay_watchdog");
  config.ckpt.every = 0;
  config.ckpt.stop_after_window = 3;
  EXPECT_FALSE(RunShardedVolano(config, 1).completed);
  const uint64_t fp = ScaleConfigFingerprint(config);
  ASSERT_EQ(ListCheckpointSegments(config.ckpt.path, fp).size(), 1u);

  config.ckpt.stop_after_window = 0;
  config.window_wall_budget_sec = 1e-9;  // Not fingerprinted: same segment.
  for (const int shards : {1, 2, 4}) {
    ::testing::internal::CaptureStderr();
    ScaleRun run;
    EXPECT_NO_THROW(run = RunShardedVolano(config, shards)) << "shards=" << shards;
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_FALSE(run.completed) << "shards=" << shards;
    EXPECT_TRUE(run.stats.failed) << "shards=" << shards;
    EXPECT_NE(run.stats.failure.find("federation watchdog: restore replay"),
              std::string::npos)
        << run.stats.failure;
    EXPECT_EQ(log.find("rejected checkpoint"), std::string::npos) << log;
    EXPECT_EQ(log.find("restore verification failed"), std::string::npos) << log;
    EXPECT_EQ(ListCheckpointSegments(config.ckpt.path, fp).size(), 1u)
        << "shards=" << shards;
  }
  RemoveCheckpointSegments(config.ckpt.path, fp);
}

TEST(ScaleCkptTest, ResumedRunCanBeStoppedAndResumedAgain) {
  const ScaleRun control = RunShardedVolano(TinyConfig(), 1);
  ASSERT_GT(control.windows, 4u);

  // Two interruptions back to back: segment -> resume -> segment -> resume.
  ScaleConfig config = TinyConfig();
  config.ckpt.path = FreshPrefix(config, "twice");
  config.ckpt.every = 1;
  config.ckpt.stop_after_window = 1;
  EXPECT_FALSE(RunShardedVolano(config, 2).completed);
  config.ckpt.stop_after_window = 3;
  EXPECT_FALSE(RunShardedVolano(config, 2).completed);
  config.ckpt.stop_after_window = 0;
  const ScaleRun resumed = RunShardedVolano(config, 2);
  EXPECT_TRUE(resumed.completed);
  EXPECT_EQ(ScaleRunSignature(resumed), ScaleRunSignature(control));
}

TEST(ScaleCkptTest, CorruptNewestSegmentFallsBackToOlderOne) {
  const ScaleRun control = RunShardedVolano(TinyConfig(), 1);
  const std::string control_sig = ScaleRunSignature(control);

  ScaleConfig config = TinyConfig();
  config.ckpt.path = FreshPrefix(config, "fallback");
  config.ckpt.every = 1;
  config.ckpt.keep = 4;
  config.ckpt.stop_after_window = 3;
  EXPECT_FALSE(RunShardedVolano(config, 1).completed);

  const uint64_t fp = ScaleConfigFingerprint(config);
  auto segments = ListCheckpointSegments(config.ckpt.path, fp);
  ASSERT_GE(segments.size(), 2u);

  // Flip one byte in the middle of the newest segment: the checksum must
  // reject it and restore must fall back to the next-older segment.
  std::string contents;
  ASSERT_TRUE(ReadFileToString(segments[0].path, &contents));
  contents[contents.size() / 2] ^= 0x40;
  ASSERT_TRUE(AtomicWriteFile(segments[0].path, contents, nullptr));

  config.ckpt.stop_after_window = 0;
  const ScaleRun resumed = RunShardedVolano(config, 1);
  EXPECT_TRUE(resumed.completed);
  EXPECT_EQ(ScaleRunSignature(resumed), control_sig);
}

TEST(ScaleCkptTest, AllSegmentsCorruptFallsBackToColdStart) {
  const ScaleRun control = RunShardedVolano(TinyConfig(), 1);

  ScaleConfig config = TinyConfig();
  config.ckpt.path = FreshPrefix(config, "coldstart");
  config.ckpt.every = 1;
  config.ckpt.stop_after_window = 2;
  EXPECT_FALSE(RunShardedVolano(config, 1).completed);

  const uint64_t fp = ScaleConfigFingerprint(config);
  for (const auto& segment : ListCheckpointSegments(config.ckpt.path, fp)) {
    ASSERT_TRUE(AtomicWriteFile(segment.path, "elscscale v1 torn", nullptr));
  }

  config.ckpt.stop_after_window = 0;
  const ScaleRun resumed = RunShardedVolano(config, 1);
  EXPECT_TRUE(resumed.completed);
  EXPECT_EQ(ScaleRunSignature(resumed), ScaleRunSignature(control));
}

TEST(ScaleCkptTest, SegmentFromDifferentSeedIsNeverReplayed) {
  ScaleConfig config = TinyConfig();
  config.ckpt.path = FreshPrefix(config, "binding");
  config.ckpt.every = 1;
  config.ckpt.stop_after_window = 2;
  EXPECT_FALSE(RunShardedVolano(config, 1).completed);

  // A different seed is a different scenario: its fingerprint differs, so
  // the old segments are simply invisible to it and it cold-starts.
  ScaleConfig other = config;
  other.seed = 8;
  other.ckpt.stop_after_window = 0;
  const uint64_t other_fp = ScaleConfigFingerprint(other);
  EXPECT_TRUE(ListCheckpointSegments(other.ckpt.path, other_fp).empty());
  const ScaleRun fresh = RunShardedVolano(other, 1);
  EXPECT_TRUE(fresh.completed);

  ScaleConfig plain = TinyConfig();
  plain.seed = 8;
  EXPECT_EQ(ScaleRunSignature(fresh),
            ScaleRunSignature(RunShardedVolano(plain, 1)));
  RemoveCheckpointSegments(config.ckpt.path, ScaleConfigFingerprint(config));
}

TEST(ScaleCkptTest, SegmentsArePrunedToKeep) {
  ScaleConfig config = TinyConfig();
  config.ckpt.path = FreshPrefix(config, "prune");
  config.ckpt.every = 1;
  config.ckpt.keep = 2;
  config.ckpt.stop_after_window = 4;
  EXPECT_FALSE(RunShardedVolano(config, 1).completed);

  const uint64_t fp = ScaleConfigFingerprint(config);
  const auto segments = ListCheckpointSegments(config.ckpt.path, fp);
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0].window, 4u);
  EXPECT_EQ(segments[1].window, 3u);
  RemoveCheckpointSegments(config.ckpt.path, fp);
}

TEST(ScaleCkptTest, GracefulShutdownUnwindsAfterWritingASegment) {
  ScaleConfig config = TinyConfig();
  config.ckpt.path = FreshPrefix(config, "sigterm");
  config.ckpt.every = 0;  // Forced-only: the shutdown segment is the proof.

  RequestShutdownForTest(true);
  EXPECT_THROW(RunShardedVolano(config, 2), GracefulShutdownRequested);
  RequestShutdownForTest(false);

  // The run unwound at the first barrier — after flushing a segment — and a
  // rerun resumes from it to the uninterrupted answer.
  const uint64_t fp = ScaleConfigFingerprint(config);
  EXPECT_FALSE(ListCheckpointSegments(config.ckpt.path, fp).empty());
  const ScaleRun resumed = RunShardedVolano(config, 2);
  EXPECT_TRUE(resumed.completed);
  EXPECT_EQ(ScaleRunSignature(resumed),
            ScaleRunSignature(RunShardedVolano(TinyConfig(), 1)));
}

TEST(ScaleCkptTest, ShutdownWithoutCheckpointingStillUnwindsCleanly) {
  RequestShutdownForTest(true);
  EXPECT_THROW(RunShardedVolano(TinyConfig(), 1), GracefulShutdownRequested);
  RequestShutdownForTest(false);
  // And the flag cleared: the same config completes normally afterwards.
  EXPECT_TRUE(RunShardedVolano(TinyConfig(), 1).completed);
}

TEST(ScaleCkptTest, EncodeDecodeRoundTripsExactly) {
  ScaleCheckpoint ck;
  ck.config_fp = 0xabcdef0123456789ULL;
  ck.seed = 7;
  ck.loop.window_index = 42;
  ck.num_nodes = 3;
  ck.loop.chats_done = 1;
  ck.loop.all_completed = false;
  ck.totals.digest = 0xfeedfacecafebeefULL;
  ck.totals.messages_delivered = 123456789;
  ck.agg_stats = "line with spaces\nand a newline";
  ck.fabric.closed = false;
  ck.fabric.stats.emitted = 17;
  ck.fabric.next_seq = {3, 1, 4};
  CkptNode live;
  live.index = 0;
  live.state = 1;
  live.life.incarnation = 2;
  live.life.clock_offset = 1000;
  live.room_ids = {0};
  live.carried_stats = "carried\\payload";
  CkptArrival arrival;
  arrival.window = 41;
  arrival.arrival = 99;
  arrival.payload.id = 5;
  arrival.payload.sender = 1;
  arrival.payload.room = 0;
  arrival.payload.sent_at = 80;
  arrival.payload.payload = 1234;
  live.arrivals = {arrival};
  live.verify = "fed:1,2|ack:0";
  CkptNode down;
  down.index = 2;
  down.state = 2;
  down.life.restart_window = 44;
  down.room_ids = {2};
  ck.nodes = {live, down};

  const std::string encoded = EncodeScaleCheckpoint(ck);
  ScaleCheckpoint decoded;
  std::string error;
  ASSERT_TRUE(DecodeScaleCheckpoint(encoded, &decoded, &error)) << error;
  // Exact round-trip: re-encoding the decoded checkpoint is byte-identical.
  EXPECT_EQ(EncodeScaleCheckpoint(decoded), encoded);
  EXPECT_EQ(decoded.nodes.size(), 2u);
  EXPECT_EQ(decoded.nodes[0].arrivals.size(), 1u);
  EXPECT_EQ(decoded.nodes[0].arrivals[0].payload.payload, 1234u);
  EXPECT_EQ(decoded.nodes[0].carried_stats, "carried\\payload");
  EXPECT_EQ(decoded.agg_stats, ck.agg_stats);
}

TEST(ScaleCkptTest, UnarmedRunsWriteNothing) {
  // ELSC_SCALE_CKPT unset and config.ckpt empty: the checkpoint layer is
  // fully disabled and the digest is the pre-checkpoint golden one.
  ScaleConfig config = TinyConfig();
  ASSERT_FALSE(config.ckpt.armed());
  const ScaleRun a = RunShardedVolano(config, 1);
  const ScaleRun b = RunShardedVolano(config, 4);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_TRUE(a.completed);
}

}  // namespace
}  // namespace elsc
