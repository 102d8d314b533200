#include "src/harness/journal.h"

#include <cinttypes>
#include <cstdio>

#include "src/base/atomic_file.h"
#include "src/base/fnv.h"
#include "src/base/line_codec.h"

namespace elsc {

bool RunJournal::Open(const std::string& path, uint64_t matrix_id, size_t cells) {
  entries_.clear();
  error_.clear();
  contents_.clear();
  opened_ = false;
  path_ = path;

  char header[96];
  std::snprintf(header, sizeof(header), "elscjournal v1 id=%016" PRIx64 " cells=%zu",
                matrix_id, cells);

  std::string valid_records;
  std::string existing;
  if (ReadFileToString(path, &existing)) {
    bool saw_header = false;
    size_t start = 0;
    while (start < existing.size()) {
      const size_t nl = existing.find('\n', start);
      if (nl == std::string::npos) {
        break;  // A final line with no '\n' is by definition torn: ignored.
      }
      const std::string line = existing.substr(start, nl - start);
      start = nl + 1;
      if (!saw_header) {
        if (line != header) {
          error_ = "journal header mismatch: expected \"" + std::string(header) +
                   "\", found \"" + line + "\"";
          return false;
        }
        saw_header = true;
        continue;
      }
      // cell <index> <attempts> <fnv64 hex> <escaped payload>
      size_t index = 0;
      int attempts = 0;
      uint64_t sum = 0;
      int consumed = -1;
      if (std::sscanf(line.c_str(), "cell %zu %d %" SCNx64 " %n", &index,
                      &attempts, &sum, &consumed) != 3 ||
          consumed < 0) {
        break;  // Malformed (likely a legacy torn line): stop, keep prior.
      }
      std::string payload;
      if (!JournalUnescape(line.substr(static_cast<size_t>(consumed)), &payload) ||
          Fnv1a64(payload) != sum) {
        break;  // Torn or corrupt: stop here.
      }
      if (index < cells) {  // Ignore out-of-range records (id collision guard).
        entries_[index] = JournalEntry{attempts, std::move(payload)};
      }
      valid_records += line;
      valid_records += '\n';
    }
  }

  contents_ = std::string(header) + "\n" + valid_records;
  // Rewrite the healed snapshot (also creates a fresh journal, and truncates
  // any torn tail a legacy append-mode build may have left).
  std::string write_error;
  if (!AtomicWriteFile(path_, contents_, &write_error)) {
    error_ = "cannot write journal " + path + ": " + write_error;
    return false;
  }
  opened_ = true;
  return true;
}

void RunJournal::Append(size_t index, int attempts, const std::string& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!opened_) {
    return;
  }
  char prefix[64];
  std::snprintf(prefix, sizeof(prefix), "cell %zu %d %016" PRIx64 " ", index,
                attempts, Fnv1a64(payload));
  contents_ += prefix;
  contents_ += JournalEscape(payload);
  contents_ += '\n';
  std::string write_error;
  if (!AtomicWriteFile(path_, contents_, &write_error)) {
    std::fprintf(stderr, "journal: durable append failed: %s\n",
                 write_error.c_str());
  }
}

}  // namespace elsc
