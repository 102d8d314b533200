// Corruption battery for the durable formats (ISSUE: "never UB"): arbitrary
// truncations, bit flips, version skews, and trailing garbage fed through
// every decoder that reads files a crash may have torn. Each case must come
// back as a clean `false` (checkpoints) or a healed prefix (the journal) —
// never a crash, hang, or sanitizer report. scripts/ci_sanitize.sh runs this
// suite under ASan/UBSan, which is what turns "decoded garbage" into a
// hard failure instead of silent luck.

#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/api/scale.h"
#include "src/api/scale_ckpt.h"
#include "src/api/simulation.h"
#include "src/base/atomic_file.h"
#include "src/base/fnv.h"
#include "src/base/string_util.h"
#include "src/harness/journal.h"

namespace elsc {
namespace {

// A representative checkpoint: live + down nodes, arrivals, carried stats,
// escaped payloads — every record type the decoder knows appears at least
// once.
ScaleCheckpoint SampleCheckpoint() {
  ScaleCheckpoint ck;
  ck.config_fp = 0x1122334455667788ULL;
  ck.seed = 7;
  ck.loop.window_index = 9;
  ck.num_nodes = 3;
  ck.loop.chats_done = 1;
  ck.totals.digest = 0xfeedfacecafebeefULL;
  ck.totals.messages_sent = 100;
  ck.totals.messages_delivered = 90;
  ck.agg_stats = "stats with spaces\nand newline";
  ck.fabric.stats.emitted = 12;
  ck.fabric.next_seq = {1, 2, 3};
  CkptNode live;
  live.index = 0;
  live.state = 1;
  live.room_ids = {0};
  live.carried_stats = "carried\\escape";
  CkptArrival arrival;
  arrival.window = 8;
  arrival.arrival = 123;
  arrival.payload.id = 4;
  arrival.payload.sender = 2;
  arrival.payload.room = 0;
  arrival.payload.sent_at = 100;
  arrival.payload.payload = 77;
  live.arrivals = {arrival, arrival};
  live.verify = "fed:1|ack:0";
  CkptNode down;
  down.index = 2;
  down.state = 2;
  down.life.restart_window = 11;
  down.room_ids = {2};
  ck.nodes = {live, down};
  return ck;
}

TEST(CkptCorruptionTest, EveryTruncationIsRejectedCleanly) {
  const std::string full = EncodeScaleCheckpoint(SampleCheckpoint());
  ScaleCheckpoint ck;
  std::string error;
  ASSERT_TRUE(DecodeScaleCheckpoint(full, &ck, &error)) << error;

  // A kill can tear the file at any byte: every proper prefix must decode to
  // a descriptive failure, never garbage state or UB.
  for (size_t len = 0; len < full.size(); ++len) {
    error.clear();
    ScaleCheckpoint torn;
    EXPECT_FALSE(DecodeScaleCheckpoint(full.substr(0, len), &torn, &error))
        << "prefix of " << len << " bytes decoded successfully";
    EXPECT_FALSE(error.empty()) << "no diagnosis for a " << len << "-byte tear";
  }
}

TEST(CkptCorruptionTest, EveryBitFlipIsRejectedCleanly) {
  const std::string full = EncodeScaleCheckpoint(SampleCheckpoint());
  // Flip each bit of each byte. The FNV trailer covers every preceding
  // byte, so a content flip must be rejected. The only flips allowed to
  // survive are semantically invisible ones (e.g. a case flip inside the
  // trailer's own hex digits, which parse to the same value) — if a flip
  // decodes, it must decode to the *original* checkpoint, byte for byte.
  for (size_t i = 0; i < full.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = full;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      ScaleCheckpoint ck;
      std::string error;
      if (DecodeScaleCheckpoint(flipped, &ck, &error)) {
        EXPECT_EQ(EncodeScaleCheckpoint(ck), full)
            << "byte " << i << " bit " << bit << " changed the decoded state";
      }
    }
  }
}

TEST(CkptCorruptionTest, VersionAndMagicSkewAreRejected) {
  const ScaleCheckpoint sample = SampleCheckpoint();
  std::string v2 = EncodeScaleCheckpoint(sample);
  v2.replace(v2.find("v1"), 2, "v2");
  std::string wrong_magic = EncodeScaleCheckpoint(sample);
  wrong_magic.replace(0, 9, "elscwrong");
  for (const std::string& bad : {v2, wrong_magic}) {
    ScaleCheckpoint ck;
    std::string error;
    EXPECT_FALSE(DecodeScaleCheckpoint(bad, &ck, &error));
    EXPECT_NE(error.find("header"), std::string::npos) << error;
  }
}

TEST(CkptCorruptionTest, StructuralDamageIsRejected) {
  const std::string full = EncodeScaleCheckpoint(SampleCheckpoint());
  const size_t end_at = full.rfind("end ");
  ASSERT_NE(end_at, std::string::npos);

  ScaleCheckpoint ck;
  std::string error;
  // Missing end record (the torn-final-write shape fsync prevents).
  EXPECT_FALSE(DecodeScaleCheckpoint(full.substr(0, end_at), &ck, &error));
  // Data after the end record (two segments concatenated).
  EXPECT_FALSE(DecodeScaleCheckpoint(full + full, &ck, &error));
  // A duplicated interior record.
  const size_t run_at = full.find("run ");
  const size_t run_end = full.find('\n', run_at);
  const std::string run_line = full.substr(run_at, run_end - run_at + 1);
  EXPECT_FALSE(DecodeScaleCheckpoint(
      full.substr(0, run_end + 1) + run_line + full.substr(run_end + 1), &ck,
      &error));
  // An unknown record type.
  EXPECT_FALSE(DecodeScaleCheckpoint(
      full.substr(0, run_at) + "mystery 1 2 3\n" + full.substr(run_at), &ck,
      &error));
  // Empty input.
  EXPECT_FALSE(DecodeScaleCheckpoint("", &ck, &error));
}

TEST(CkptCorruptionTest, RestoreSurvivesRandomGarbageSegments) {
  // End to end: a segment file full of noise must be rejected at restore and
  // the run must cold-start to the correct digest.
  ScaleConfig config;
  config.rooms = 2;
  config.rooms_per_node = 1;
  config.chat.users_per_room = 2;
  config.chat.messages_per_user = 2;
  config.seed = 3;
  const ScaleRun control = RunShardedVolano(config, 1);
  ASSERT_TRUE(control.completed);

  config.ckpt.path = ::testing::TempDir() + "/elsc_ckpt_garbage";
  const uint64_t fp = ScaleConfigFingerprint(config);
  RemoveCheckpointSegments(config.ckpt.path, fp);
  // Deterministic xorshift noise — no RNG dependency in the test.
  std::string noise(512, '\0');
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (char& c : noise) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    c = static_cast<char>(x);
  }
  ASSERT_TRUE(AtomicWriteFile(CheckpointSegmentPath(config.ckpt.path, fp, 2),
                              noise, nullptr));
  const ScaleRun resumed = RunShardedVolano(config, 1);
  EXPECT_TRUE(resumed.completed);
  EXPECT_EQ(resumed.digest, control.digest);
}

TEST(CkptCorruptionTest, RunStatsDecoderRejectsTruncations) {
  RunStats stats;
  stats.sched.schedule_calls = 41;
  stats.machine.context_switches = 97;
  stats.elapsed_sec = 1.5;
  stats.failed = true;
  stats.failure = "watchdog: something with spaces";
  const std::string full = EncodeRunStats(stats);
  RunStats round;
  ASSERT_TRUE(DecodeRunStats(full, &round));
  EXPECT_EQ(EncodeRunStats(round), full);

  // The failure string is the free-form tail, so truncations inside it still
  // parse (they just shorten the diagnosis). Any tear inside the numeric
  // section — everything before the trailing `failed` bit — must be
  // rejected, and no tear anywhere may be UB.
  const size_t numeric_end = full.size() - stats.failure.size() - 2;
  for (size_t len = 0; len < numeric_end; ++len) {
    RunStats torn;
    EXPECT_FALSE(DecodeRunStats(full.substr(0, len), &torn))
        << "numeric prefix of " << len << " bytes decoded";
  }
  for (size_t len = numeric_end; len <= full.size(); ++len) {
    RunStats torn;
    DecodeRunStats(full.substr(0, len), &torn);  // Must not crash.
  }
}

// strtoull would read "-1" as 2^64-1 and skip a leading tab; the token
// reader accepts only what the encoder writes, so a sign or a tab in an
// unsigned field rejects the record.
TEST(CkptCorruptionTest, UnsignedTokensRejectSignsAndTabs) {
  const std::vector<std::string> bad = {"-1", "+1", "\t1"};
  const std::string stats = EncodeRunStats(RunStats{});
  ASSERT_EQ(stats.substr(0, 2), "0 ");
  RunStats decoded;
  ASSERT_TRUE(DecodeRunStats("1" + stats.substr(1), &decoded));
  for (const std::string& token : bad) {
    EXPECT_FALSE(DecodeRunStats(token + stats.substr(1), &decoded))
        << "schedule_calls token \"" << token << "\" decoded";
  }

  // The checkpoint "run" record: replace its second token (messages_sent,
  // a U64) and re-seal the trailer so the decoder reaches the record
  // instead of stopping at the checksum.
  const std::string full = EncodeScaleCheckpoint(SampleCheckpoint());
  const size_t run_at = full.find("run ");
  const size_t token_at = full.find(' ', run_at + 4) + 1;
  const size_t token_end = full.find(' ', token_at);
  ASSERT_EQ(full.substr(token_at, token_end - token_at), "100");
  const auto with_token = [&](const std::string& token) {
    const std::string body = full.substr(0, token_at) + token +
                             full.substr(token_end, full.rfind("end ") - token_end);
    return body + StrFormat("end %016llx\n",
                            static_cast<unsigned long long>(Fnv1a64(body)));
  };
  ScaleCheckpoint ck;
  std::string error;
  ASSERT_TRUE(DecodeScaleCheckpoint(with_token("1"), &ck, &error)) << error;
  EXPECT_EQ(ck.totals.messages_sent, 1u);
  for (const std::string& token : bad) {
    EXPECT_FALSE(DecodeScaleCheckpoint(with_token(token), &ck, &error))
        << "run token \"" << token << "\" decoded";
    EXPECT_NE(error.find("bad run record"), std::string::npos) << error;
  }
}

TEST(CkptCorruptionTest, JournalHealsCorruptTails) {
  const std::string path = ::testing::TempDir() + "/elsc_corrupt_journal";
  const uint64_t matrix_id = 0x5eedULL;
  {
    RunJournal journal;
    ASSERT_TRUE(journal.Open(path, matrix_id, 4));
    journal.Append(0, 1, "payload zero");
    journal.Append(1, 2, "payload one\nwith newline");
  }
  std::string full;
  ASSERT_TRUE(ReadFileToString(path, &full));

  // Tear the file at every byte past the header: reopening must keep the
  // valid prefix (possibly zero entries) and never crash.
  const size_t header_end = full.find('\n') + 1;
  for (size_t len = header_end; len <= full.size(); ++len) {
    ASSERT_TRUE(AtomicWriteFile(path, full.substr(0, len), nullptr));
    RunJournal journal;
    ASSERT_TRUE(journal.Open(path, matrix_id, 4)) << "torn at " << len;
    EXPECT_LE(journal.entries().size(), 2u);
    for (const auto& [index, entry] : journal.entries()) {
      EXPECT_TRUE(index == 0 || index == 1);
      EXPECT_FALSE(entry.payload.empty());
    }
  }

  // A corrupt checksum drops that record but keeps the ones before it.
  std::string flipped = full;
  flipped[flipped.size() - 2] ^= 0x01;  // Inside the last record's payload.
  ASSERT_TRUE(AtomicWriteFile(path, flipped, nullptr));
  {
    RunJournal journal;
    ASSERT_TRUE(journal.Open(path, matrix_id, 4));
    EXPECT_EQ(journal.entries().size(), 1u);
    EXPECT_EQ(journal.entries().count(0), 1u);
  }

  // A header from a different matrix refuses to open at all (never heals
  // someone else's checkpoint into this run).
  ASSERT_TRUE(AtomicWriteFile(path, full, nullptr));
  {
    RunJournal journal;
    EXPECT_FALSE(journal.Open(path, 0xd00dULL, 4));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace elsc
