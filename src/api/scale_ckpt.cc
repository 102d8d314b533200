#include "src/api/scale_ckpt.h"

#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/api/scale.h"
#include "src/base/atomic_file.h"
#include "src/base/fnv.h"
#include "src/base/line_codec.h"
#include "src/base/string_util.h"

namespace elsc {

namespace {

// One field list per record type, driving both EncodeScaleCheckpoint (Io =
// TokenWriter over a const record) and DecodeScaleCheckpoint (Io =
// TokenReader): a field added or reordered here changes both halves.

// "run": the aggregate run-so-far, then the coordinator loop state (whose
// window index rides in the header).
template <typename Io, typename Ck>
bool RunFields(Io& io, Ck& ck) {
  auto& t = ck.totals;
  auto& l = ck.loop;
  return io.Hex64(t.digest) && io.U64(t.messages_sent) &&
         io.U64(t.messages_delivered) && io.U64(t.beacons_sent) &&
         io.U64(t.beacons_received) && io.U64(t.inbox_overflows) &&
         io.U64(t.late_writes) && io.U64(t.node_crashes) &&
         io.U64(t.node_restarts) && io.U64(t.windows_degraded) &&
         io.U64(t.retransmits) && io.U64(t.retx_abandoned) &&
         io.U64(t.dup_discards) && io.U64(t.acks_sent) &&
         io.U64(t.acks_received) && io.U64(t.chat_messages_lost) &&
         io.U64(t.crash_inflight_dropped) && io.U64(t.peak_live_tasks) &&
         io.U64(t.peak_live_nodes) && io.U64(t.peak_task_arena_bytes) &&
         io.U64(t.peak_live_sockets) && io.Int(l.chats_done) &&
         io.Bool(l.all_completed) && io.Bool(l.inboxes_closed) &&
         io.U64(l.inbox_close_at) && io.U64(l.router_close_window) &&
         io.U64(l.inbox_close_window);
}

// "fabric": the router cursor (lanes are empty at a post-Exchange barrier).
template <typename Io, typename F>
bool FabricFields(Io& io, F& f) {
  auto& s = f.stats;
  if (!(io.Bool(f.closed) && io.U64(s.emitted) && io.U64(s.routed) &&
        io.U64(s.refused) && io.U64(s.dropped_closed) && io.U64(s.exchanges) &&
        io.U64(s.max_window_backlog) && io.U64(s.dropped_loss) &&
        io.U64(s.dropped_partition) && io.U64(s.dropped_crashed) &&
        io.U64(s.dropped_lane_overflow) && io.U64(s.duplicated) &&
        io.Count(f.next_seq))) {
    return false;
  }
  for (auto& seq : f.next_seq) {
    if (!io.U64(seq)) {
      return false;
    }
  }
  return true;
}

// "node": identity, lifecycle, federation counters, then the room list.
template <typename Io, typename N>
bool NodeFields(Io& io, N& n) {
  auto& l = n.life;
  auto& f = n.fed;
  if (!(io.Int(n.index) && io.Int(n.state) && io.Int(l.incarnation) &&
        io.U64(l.clock_offset) && io.U64(l.crashes) &&
        io.U64(l.restart_window) && io.Bool(l.chat_done) &&
        io.U64(l.banked_sent) && io.U64(l.banked_delivered) &&
        io.U64(l.chat_messages_lost) && io.U64(l.crash_inflight_dropped) &&
        io.U64(f.beacons_sent) && io.U64(f.beacons_received) &&
        io.U64(f.inbox_overflows) && io.U64(f.late_writes) &&
        io.U64(f.last_remote_progress) && io.U64(f.retransmits) &&
        io.U64(f.retx_abandoned) && io.U64(f.dup_discards) &&
        io.U64(f.acks_sent) && io.U64(f.acks_received) &&
        io.Count(n.room_ids))) {
    return false;
  }
  for (auto& room : n.room_ids) {
    if (!io.Int(room)) {
      return false;
    }
  }
  return true;
}

// "arr": one logged arrival, tagged with its owning node's index.
template <typename Io, typename Owner, typename A>
bool ArrivalFields(Io& io, Owner& owner, A& a) {
  return io.Int(owner) && io.U64(a.window) && io.U64(a.arrival) &&
         io.U64(a.payload.id) && io.Int(a.payload.sender) &&
         io.Int(a.payload.room) && io.U64(a.payload.sent_at) &&
         io.U64(a.payload.payload);
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

uint64_t ScaleConfigFingerprint(const ScaleConfig& c) {
  std::string enc = "scalefp v1 ";
  TokenWriter w(&enc);
  // Scenario shape + per-node machine.
  w.Int(c.rooms);
  w.Int(c.rooms_per_node);
  w.Int(static_cast<int64_t>(c.kernel));
  w.Int(static_cast<int64_t>(c.scheduler));
  w.U64(c.seed);
  // Lock-step / federation timing.
  w.U64(c.window);
  w.U64(c.fabric_latency);
  w.U64(c.gossip_period);
  w.U64(c.beacon_cycles);
  w.U64(c.gossip_process_cycles);
  w.U64(c.fabric_inbox_capacity);
  w.U64(c.deadline);
  // Chat workload (every field of VolanoConfig shapes behavior).
  const VolanoConfig& v = c.chat;
  w.Int(v.rooms);
  w.Int(v.users_per_room);
  w.Int(v.messages_per_user);
  w.F64(v.yield_probability);
  w.Int(v.max_yield_spin);
  w.U64(v.yield_spin_cycles);
  w.Int(v.spin_yields_before_block);
  w.Int(v.lock_spin_yields);
  w.U64(v.lock_acquire_cycles);
  w.U64(v.accept_work_cycles);
  w.U64(v.accept_latency_mean);
  w.Int(v.connect_spin_yields);
  w.Int(v.ack_spin_yields);
  w.U64(v.compose_cycles);
  w.U64(v.client_process_cycles);
  w.U64(v.server_parse_cycles);
  w.U64(v.broadcast_enqueue_cycles);
  w.U64(v.server_write_cycles);
  w.U64(v.syscall_cycles);
  w.F64(v.work_jitter);
  w.U64(v.socket_capacity);
  w.U64(v.outqueue_capacity);
  w.U64(v.churn ? 1 : 0);
  w.U64(v.ack_timeout);
  w.U64(v.backoff.base);
  w.U64(v.backoff.max);
  w.Int(v.backoff.max_retries);
  // Federation failure model.
  const FederationFaultPlan& f = c.faults;
  w.U64(f.seed);
  w.F64(f.node_crash_rate);
  w.U64(f.crash_window_min);
  w.U64(f.crash_window_span);
  w.U64(f.down_windows_min);
  w.U64(f.down_windows_span);
  w.F64(f.link_partition_rate);
  w.U64(f.partition_window_min);
  w.U64(f.partition_window_span);
  w.U64(f.partition_duration_min);
  w.U64(f.partition_duration_span);
  w.F64(f.loss_rate);
  w.F64(f.dup_rate);
  // Recovery protocol.
  w.U64(c.retransmit ? 1 : 0);
  w.U64(c.retransmit_backoff.base);
  w.U64(c.retransmit_backoff.max);
  w.Int(c.retransmit_backoff.max_retries);
  w.U64(c.retransmit_buffer);
  w.U64(c.recovery_gap_span);
  w.U64(c.fabric_lane_capacity);
  return Fnv1a64(enc);
}

ScaleCheckpointOptions ScaleCheckpointOptions::FromEnv() {
  ScaleCheckpointOptions opts;
  const char* path = std::getenv("ELSC_SCALE_CKPT");
  if (path != nullptr && *path != '\0') {
    opts.path = path;
  }
  if (const char* every = std::getenv("ELSC_SCALE_CKPT_EVERY")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(every, &end, 10);
    if (end != every && *end == '\0') {
      opts.every = v;
    }
  }
  if (const char* keep = std::getenv("ELSC_SCALE_CKPT_KEEP")) {
    const int v = std::atoi(keep);
    if (v >= 1) {
      opts.keep = v;
    }
  }
  return opts;
}

std::string EncodeScaleCheckpoint(const ScaleCheckpoint& ck) {
  std::string out = StrFormat(
      "elscscale v1 fp=%016llx seed=%llu window=%llu nodes=%d\n",
      static_cast<unsigned long long>(ck.config_fp),
      static_cast<unsigned long long>(ck.seed),
      static_cast<unsigned long long>(ck.loop.window_index), ck.num_nodes);
  TokenWriter w(&out);
  out += "run ";
  RunFields(w, ck);
  out += "\nstats " + JournalEscape(ck.agg_stats) + "\nfabric ";
  FabricFields(w, ck.fabric);
  out += '\n';
  for (const CkptNode& n : ck.nodes) {
    out += "node ";
    NodeFields(w, n);
    out += '\n';
    if (!n.carried_stats.empty()) {
      out += StrFormat("carried %d ", n.index) + JournalEscape(n.carried_stats) +
             "\n";
    }
    for (const CkptArrival& a : n.arrivals) {
      out += "arr ";
      ArrivalFields(w, n.index, a);
      out += '\n';
    }
    if (!n.verify.empty()) {
      out += StrFormat("verify %d ", n.index) + JournalEscape(n.verify) + "\n";
    }
  }
  out += StrFormat("end %016llx\n",
                   static_cast<unsigned long long>(Fnv1a64(out)));
  return out;
}

bool DecodeScaleCheckpoint(const std::string& contents, ScaleCheckpoint* ck,
                           std::string* error) {
  *ck = ScaleCheckpoint{};
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) {
      *error = why;
    }
    return false;
  };

  bool saw_header = false;
  bool saw_run = false;
  bool saw_stats = false;
  bool saw_fabric = false;
  bool saw_end = false;
  size_t start = 0;
  size_t line_no = 0;
  while (start < contents.size()) {
    const size_t nl = contents.find('\n', start);
    if (nl == std::string::npos) {
      return fail(StrFormat("truncated: unterminated line %zu", line_no + 1));
    }
    const size_t line_start = start;
    const std::string line = contents.substr(start, nl - start);
    start = nl + 1;
    ++line_no;
    if (saw_end) {
      return fail("trailing data after the end record");
    }
    const auto bad = [&](const char* record) {
      return fail(StrFormat("bad %s record at line %zu", record, line_no));
    };

    if (!saw_header) {
      unsigned long long fp = 0;
      unsigned long long seed = 0;
      unsigned long long window = 0;
      int nodes = 0;
      int consumed = -1;
      if (std::sscanf(line.c_str(), "elscscale v1 fp=%llx seed=%llu window=%llu nodes=%d%n",
                      &fp, &seed, &window, &nodes, &consumed) != 4 ||
          consumed != static_cast<int>(line.size())) {
        return fail("bad header (wrong magic or version): \"" + line + "\"");
      }
      if (nodes < 1) {
        return fail("bad header: node count < 1");
      }
      ck->config_fp = fp;
      ck->seed = seed;
      ck->loop.window_index = window;
      ck->num_nodes = nodes;
      saw_header = true;
      continue;
    }

    if (StartsWith(line, "run ")) {
      if (saw_run) {
        return fail("duplicate run record");
      }
      TokenReader tr(line.substr(4));
      if (!RunFields(tr, *ck) || !tr.Done()) {
        return bad("run");
      }
      saw_run = true;
      continue;
    }

    if (StartsWith(line, "stats ")) {
      if (saw_stats || !JournalUnescape(line.substr(6), &ck->agg_stats)) {
        return bad("stats");
      }
      saw_stats = true;
      continue;
    }

    if (StartsWith(line, "fabric ")) {
      if (saw_fabric) {
        return fail("duplicate fabric record");
      }
      TokenReader tr(line.substr(7));
      if (!FabricFields(tr, ck->fabric) || !tr.Done() ||
          ck->fabric.next_seq.size() != static_cast<size_t>(ck->num_nodes)) {
        return bad("fabric");
      }
      saw_fabric = true;
      continue;
    }

    if (StartsWith(line, "node ")) {
      TokenReader tr(line.substr(5));
      CkptNode n;
      if (!NodeFields(tr, n) || !tr.Done() || n.index < 0 ||
          n.index >= ck->num_nodes || (n.state != 1 && n.state != 2) ||
          n.life.incarnation < 0) {
        return bad("node");
      }
      if (!ck->nodes.empty() && ck->nodes.back().index >= n.index) {
        return fail(StrFormat("node records out of order at line %zu", line_no));
      }
      ck->nodes.push_back(std::move(n));
      continue;
    }

    if (StartsWith(line, "carried ") || StartsWith(line, "verify ")) {
      // Escaped payloads attached to the most recent node line.
      const bool carried = StartsWith(line, "carried ");
      const char* record = carried ? "carried" : "verify";
      const size_t skip = carried ? 8 : 7;
      char* end = nullptr;
      const long owner = std::strtol(line.c_str() + skip, &end, 10);
      if (end == line.c_str() + skip || *end != ' ' || ck->nodes.empty() ||
          ck->nodes.back().index != owner) {
        return fail(StrFormat("orphaned %s record at line %zu", record, line_no));
      }
      std::string* dst =
          carried ? &ck->nodes.back().carried_stats : &ck->nodes.back().verify;
      const size_t payload_at = static_cast<size_t>(end - line.c_str()) + 1;
      if (!dst->empty() || !JournalUnescape(line.substr(payload_at), dst)) {
        return bad(record);
      }
      continue;
    }

    if (StartsWith(line, "arr ")) {
      TokenReader tr(line.substr(4));
      CkptArrival a;
      int owner = -1;
      if (!ArrivalFields(tr, owner, a) || !tr.Done() || ck->nodes.empty() ||
          ck->nodes.back().index != owner) {
        return bad("arr");
      }
      // Arrival logs are appended in barrier order; enforce it so a replay
      // cursor can trust the ordering.
      std::vector<CkptArrival>& log = ck->nodes.back().arrivals;
      if (!log.empty() && log.back().window > a.window) {
        return fail(StrFormat("arr records out of order at line %zu", line_no));
      }
      log.push_back(a);
      continue;
    }

    if (StartsWith(line, "end ")) {
      TokenReader tr(line.substr(4));
      uint64_t sum = 0;
      if (!tr.Hex64(sum) || !tr.Done()) {
        return fail("bad end record");
      }
      if (Fnv1a64(std::string_view(contents).substr(0, line_start)) != sum) {
        return fail("checksum mismatch (torn or bit-flipped segment)");
      }
      saw_end = true;
      continue;
    }

    return fail(StrFormat("unknown record at line %zu: \"%.32s\"", line_no,
                          line.c_str()));
  }

  if (!saw_header || !saw_run || !saw_stats || !saw_fabric || !saw_end) {
    return fail("incomplete segment (missing header/run/stats/fabric/end)");
  }
  return true;
}

std::string CheckpointSegmentPath(const std::string& prefix, uint64_t config_fp,
                                  uint64_t window) {
  return prefix + StrFormat(".%016llx.w%llu.ckpt",
                            static_cast<unsigned long long>(config_fp),
                            static_cast<unsigned long long>(window));
}

std::vector<CheckpointSegmentInfo> ListCheckpointSegments(
    const std::string& prefix, uint64_t config_fp) {
  std::vector<CheckpointSegmentInfo> segments;
  const size_t slash = prefix.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : prefix.substr(0, slash);
  const std::string base =
      slash == std::string::npos ? prefix : prefix.substr(slash + 1);
  const std::string stem =
      base + StrFormat(".%016llx.w", static_cast<unsigned long long>(config_fp));

  DIR* d = ::opendir(dir.empty() ? "/" : dir.c_str());
  if (d == nullptr) {
    return segments;
  }
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() <= stem.size() + 5 || name.rfind(stem, 0) != 0 ||
        name.compare(name.size() - 5, 5, ".ckpt") != 0) {
      continue;
    }
    const std::string digits = name.substr(stem.size(), name.size() - stem.size() - 5);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    CheckpointSegmentInfo info;
    info.window = std::strtoull(digits.c_str(), nullptr, 10);
    info.path = (dir == "." && slash == std::string::npos ? name : dir + "/" + name);
    segments.push_back(std::move(info));
  }
  ::closedir(d);
  std::sort(segments.begin(), segments.end(),
            [](const CheckpointSegmentInfo& a, const CheckpointSegmentInfo& b) {
              return a.window > b.window;
            });
  return segments;
}

bool WriteCheckpointSegment(const ScaleCheckpointOptions& options,
                            const ScaleCheckpoint& ckpt, std::string* error) {
  const std::string path =
      CheckpointSegmentPath(options.path, ckpt.config_fp, ckpt.loop.window_index);
  if (!AtomicWriteFile(path, EncodeScaleCheckpoint(ckpt), error)) {
    return false;
  }
  const int keep = options.keep >= 1 ? options.keep : 1;
  const auto segments = ListCheckpointSegments(options.path, ckpt.config_fp);
  for (size_t i = static_cast<size_t>(keep); i < segments.size(); ++i) {
    std::remove(segments[i].path.c_str());
  }
  return true;
}

void RemoveCheckpointSegments(const std::string& prefix, uint64_t config_fp) {
  for (const CheckpointSegmentInfo& seg :
       ListCheckpointSegments(prefix, config_fp)) {
    std::remove(seg.path.c_str());
  }
}

}  // namespace elsc
