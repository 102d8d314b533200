// Sharded parallel discrete-event mode: one scenario across worker threads.
//
// Every experiment so far parallelizes *across* matrix cells; a single cell
// is strictly serial, which caps the largest simulable scenario at tens of
// VolanoMark rooms. This layer runs ONE scenario — a federation of chat
// servers — across worker threads:
//
//   * The scenario is partitioned into `nodes`: each node owns an
//     independent Engine+Machine simulating `rooms_per_node` rooms (its own
//     VolanoWorkload — a chat server process in the federation). The
//     partition is scenario *structure*, not an execution knob: co-located
//     rooms share a scheduler, so changing rooms_per_node changes the
//     simulated system.
//   * `shards` worker threads advance the nodes in conservative
//     time-windowed lock-step: every node runs to the barrier B_k =
//     (k+1) * window, then the single-threaded coordinator exchanges
//     cross-node traffic (src/sim/fabric.h), folds finished nodes into the
//     aggregate, and releases the next window. Shard count is pure
//     execution parallelism — results are bit-identical at any value, and
//     at any ELSC_BENCH_JOBS when cells of a sweep run concurrently.
//   * Cross-node traffic: each node's federation relay gossips per-room
//     progress beacons to its ring successor every `gossip_period`; beacons
//     ride the fabric with latency >= window (the conservative rule) and
//     land in the destination's bounded inbox, where a receiver task drains
//     and processes them. Real scheduler-visible load — the relays block,
//     wake, and compete for CPU like every other task.
//   * Streaming aggregation: a node that completes is folded into the
//     running RunStats/digest (MergeRunStats) and destroyed at that
//     barrier, so peak memory tracks the *live* scenario, not its total
//     history. Memory high-water marks are sampled at every barrier.
//
// Determinism contract: ScaleRun::digest (and RenderScaleJson output) are
// pure functions of ScaleConfig — independent of shard count, job count,
// and host timing. tests/scale_test.cc pins this with golden digests at
// shard counts 1/2/4 and ELSC_BENCH_JOBS 1/2/4. See docs/SCALE.md.

#ifndef SRC_API_SCALE_H_
#define SRC_API_SCALE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/api/scale_ckpt.h"
#include "src/api/simulation.h"
#include "src/net/backoff.h"
#include "src/sim/fabric.h"

namespace elsc {

struct ScaleConfig {
  // Scenario shape: `rooms` total rooms, split into nodes of
  // `rooms_per_node` each (the last node takes the remainder).
  int rooms = 40;
  int rooms_per_node = 1;
  // Per-node chat parameters; `chat.rooms` is overridden with the node's
  // share. Scale scenarios usually reduce messages_per_user — the point is
  // breadth (rooms x connections), not per-room depth.
  VolanoConfig chat;
  // Per-node machine: every node is one chat-server host.
  KernelConfig kernel = KernelConfig::kSmp1;
  SchedulerKind scheduler = SchedulerKind::kElsc;
  uint64_t seed = 1;

  // Conservative lock-step parameters. fabric_latency == 0 means one
  // window; RunShardedVolano aborts unless latency >= window.
  Cycles window = MsToCycles(10);
  Cycles fabric_latency = 0;

  // Federation gossip (the cross-node traffic). gossip_period == 0 disables
  // the fabric entirely (independent nodes — pure scaling measurements).
  Cycles gossip_period = MsToCycles(20);
  Cycles beacon_cycles = UsToCycles(30);          // CPU to compose one beacon.
  Cycles gossip_process_cycles = UsToCycles(50);  // CPU to apply one beacon.
  size_t fabric_inbox_capacity = 64;

  // Simulated-time safety net: a scenario still live past this is declared
  // failed (the sharded analog of RunVolano's deadline).
  Cycles deadline = SecToCycles(3600);

  // -- Failure model (docs/SCALE.md "Failure model"). Default-disabled: a
  //    fault-free config runs the exact pre-failure-model code paths
  //    (fire-and-forget beacons, no acks) and keeps byte-identical digests.
  FederationFaultPlan faults;
  // Recovery protocol, armed only when faults.Enabled(): beacons carry
  // per-link sequence numbers, receivers return cumulative acks, and — when
  // `retransmit` is true — unacked beacons are retransmitted on gossip wakes
  // under `retransmit_backoff`. retransmit = false is the no-retransmit
  // control column of bench/federation_chaos.
  bool retransmit = true;
  BackoffPolicy retransmit_backoff;
  size_t retransmit_buffer = 128;  // Unacked beacons retained per node.
  // A receiver seeing a sequence gap wider than this (or a full reorder
  // buffer) jumps past the gap: the skipped beacons are the protocol's
  // deliveries_lost.
  size_t recovery_gap_span = 32;
  // Per-source fabric lane bound (0 = unbounded): a partitioned destination
  // cannot grow fabric memory without bound, overflow is a counted drop.
  size_t fabric_lane_capacity = 0;
  // Per-window wall-clock watchdog armed on every shard thread (and the
  // serial loop): 0 = take ELSC_CELL_TIMEOUT_MS from the environment (unset
  // = off), negative = force off. A stuck federation folds into a
  // completed=false run instead of hanging the process.
  double window_wall_budget_sec = 0.0;

  // Window-granular checkpoint/restore (scale_ckpt.h, docs/SCALE.md
  // "Checkpoint & recovery"). When path is empty the options resolve from
  // ELSC_SCALE_CKPT* at run time; fully disabled when that is unset too.
  // Execution machinery, like `shards` and the wall budget — never part of
  // the digest, signature, JSON, or config fingerprint.
  ScaleCheckpointOptions ckpt;

  int nodes() const {
    return rooms_per_node > 0 ? (rooms + rooms_per_node - 1) / rooms_per_node : rooms;
  }
  uint64_t connections() const {
    return static_cast<uint64_t>(rooms) * static_cast<uint64_t>(chat.users_per_room);
  }
};

// Aggregate result of one sharded scenario. Everything except `shards` is a
// pure function of the ScaleConfig (shards is recorded for reporting only).
// The counters, peaks and digest a checkpoint carries live in ScaleTotals
// (scale_ckpt.h).
struct ScaleRun : ScaleTotals {
  bool completed = false;
  int nodes = 0;
  int shards = 0;            // Execution detail; excluded from the digest.
  uint64_t windows = 0;      // Lock-step windows until the last node finished.
  uint64_t rooms = 0;
  uint64_t connections = 0;

  double elapsed_sec = 0.0;  // Max node completion time (simulated).
  double throughput = 0.0;   // Deliveries per simulated second, aggregate.
  FabricStats fabric;

  bool fault_model = false;       // config.faults.Enabled() — gates the
                                  // fault blocks in digest/signature/JSON.
  uint64_t deliveries_lost = 0;   // Beacons emitted but never processed.
  // Deliveries per simulated second of total federation runtime (windows x
  // window), downtime and re-run windows included — the goodput-under-faults
  // metric. Equals throughput's denominator-free sibling fault-free.
  double goodput = 0.0;

  // Folded per-node stats (MergeRunStats: counters summed, peaks summed —
  // the total-footprint bound; see the concurrent peaks for true
  // coexistence maxima).
  RunStats stats;
};

// FNV-1a over a canonical encoding of every behavior-shaping ScaleConfig
// field (scenario shape, chat parameters, federation timing, fault plan,
// recovery protocol — everything the digest is a function of; execution
// knobs like shards / wall budget / ckpt excluded). Binds checkpoint
// segments to their scenario: a segment whose header fingerprint differs is
// rejected, never replayed into the wrong run.
uint64_t ScaleConfigFingerprint(const ScaleConfig& config);

// Runs the sharded scenario on `shards` worker threads (clamped to
// [1, nodes]; <= 0 means 1). Deterministic: the returned ScaleRun (minus
// `shards`) depends only on `config` — including across a checkpoint/restore
// cycle, which resumes from the newest valid segment and produces the exact
// digest of an uninterrupted run. Throws GracefulShutdownRequested at the
// next barrier after SIGTERM/SIGINT (writing a final segment first when
// checkpointing is armed).
ScaleRun RunShardedVolano(const ScaleConfig& config, int shards);

// Canonical digest line for golden tests and logs:
// "scale:<digest hex>|nodes:N|windows:K|delivered:D|...".
std::string ScaleRunSignature(const ScaleRun& run);

// One sweep cell for bench/scale_sweep: a scenario size x scheduler x shard
// count, plus the wall-clock the bench measured around it (wall_sec and
// tasks_per_wall_sec are host measurements — never part of the
// deterministic JSON body, see RenderScaleJson).
struct ScaleCell {
  ScaleConfig config;
  ScaleRun run;
  double wall_sec = 0.0;
  double tasks_per_wall_sec = 0.0;
  double events_per_wall_sec = 0.0;
};

// Renders the sweep as canonical JSON. The cell bodies contain only
// simulated (deterministic) data — byte-identical at any shard count and
// any ELSC_BENCH_JOBS. `include_timing` additionally appends a "timing"
// block of wall-clock measurements (tasks/sec curves, peak RSS); CI's
// determinism gate renders with include_timing == false (the
// ELSC_BENCH_TIMING=0 knob) so the files can be byte-compared.
std::string RenderScaleJson(const std::vector<ScaleCell>& cells, uint64_t seed,
                            bool include_timing);

}  // namespace elsc

#endif  // SRC_API_SCALE_H_
