// Crash-consistent, fsync'd run journal for checkpoint/resume of matrix runs.
//
// Format (plain text, one record per line):
//
//   elscjournal v1 id=<matrix_id hex> cells=<n>
//   cell <index> <attempts> <fnv64 hex> <escaped payload>
//   ...
//
// The header binds the file to a specific matrix (id = a hash of the cell
// specs, n = cell count), so a stale journal from a different experiment is
// rejected instead of silently poisoning results. Payloads are the exact
// round-trip encodings of cell results (see CellCodec in supervisor.h) with
// newline/backslash escaped (JournalEscape, src/base/line_codec.h), and each
// line carries an FNV-1a 64 checksum of the unescaped payload.
//
// Crash tolerance: every mutation rewrites the whole file through
// AtomicWriteFile (write-temp + fsync + rename), so the on-disk journal is
// always a complete, internally-consistent snapshot — a kill at any instant
// leaves either the previous snapshot or the new one, never a torn line.
// Loading still tolerates journals written by older append-mode builds:
// parsing stops at the first malformed or checksum-failing line and keeps
// everything before it (Open() then rewrites the healed snapshot). If an
// index appears more than once, the last record wins.

#ifndef SRC_HARNESS_JOURNAL_H_
#define SRC_HARNESS_JOURNAL_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

namespace elsc {

struct JournalEntry {
  int attempts = 0;
  std::string payload;
};

class RunJournal {
 public:
  RunJournal() = default;

  RunJournal(const RunJournal&) = delete;
  RunJournal& operator=(const RunJournal&) = delete;

  // Opens (creating if absent) the journal at `path` for a matrix identified
  // by `matrix_id` with `cells` cells. Previously completed cells are loaded
  // into entries(). Returns false — with error() set and nothing opened — if
  // the file exists but its header names a different matrix, or on I/O
  // failure; the caller should then run un-journaled rather than clobber
  // someone else's checkpoint.
  bool Open(const std::string& path, uint64_t matrix_id, size_t cells);

  // Durably records cell `index` as complete. Thread-safe.
  void Append(size_t index, int attempts, const std::string& payload);

  bool open() const { return opened_; }
  const std::string& error() const { return error_; }
  const std::unordered_map<size_t, JournalEntry>& entries() const {
    return entries_;
  }

 private:
  bool opened_ = false;
  std::mutex mu_;
  std::string path_;
  // The full current file image (header + every valid record line); each
  // Append extends it and atomically rewrites the file.
  std::string contents_;
  std::string error_;
  std::unordered_map<size_t, JournalEntry> entries_;
};

}  // namespace elsc

#endif  // SRC_HARNESS_JOURNAL_H_
