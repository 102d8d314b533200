// The one codec behind every line-oriented text format in the tree: the run
// journal, scale checkpoint segments, and the RunStats / VolanoRun payloads
// they carry.
//
// A record is a run of space-terminated tokens. TokenWriter appends them and
// TokenReader parses them back, so a field list written once as
// `template <typename Io, typename R> bool Fields(Io& io, R& r)` drives both
// the encoder (Io = TokenWriter over a const record) and the decoder (Io =
// TokenReader). Doubles travel as %a hex-floats, which strtod parses back
// exactly. Free-form text rides either last on its line (TokenReader::Rest)
// or escaped onto one line (JournalEscape).

#ifndef SRC_BASE_LINE_CODEC_H_
#define SRC_BASE_LINE_CODEC_H_

#include <cstdint>
#include <string>
#include <utility>

namespace elsc {

// Appends space-terminated tokens to `*out`. Every method returns true so
// field lists can chain them with &&, like the reader's.
class TokenWriter {
 public:
  explicit TokenWriter(std::string* out) : out_(out) {}

  bool U64(uint64_t v);
  bool Int(int64_t v);
  bool Hex64(uint64_t v);  // Zero-padded to 16 digits.
  bool F64(double v);      // %a hex-float.
  bool Bool(bool v) { return U64(v ? 1 : 0); }
  template <typename V>
  bool Count(const V& v) {
    return U64(v.size());
  }

 private:
  std::string* out_;
};

// Strict scanner over a line of space-separated tokens. A getter accepts
// only what TokenWriter can write — U64 takes decimal digits alone, Hex64
// hex digits alone, Int an optional '-' then digits — and the token must fit
// its type and end at a space or the end of the line. Anything else (a
// sign, a tab, trailing junk, overflow, a missing token) returns false, so a
// decoder rejects torn or corrupted input instead of reading garbage.
class TokenReader {
 public:
  // Owned copy: callers routinely pass `line.substr(n)` temporaries, and a
  // reference member would dangle the moment that statement ends.
  explicit TokenReader(std::string s) : s_(std::move(s)) {}

  bool U64(uint64_t& out) { return Unsigned(&out, 10); }
  bool Hex64(uint64_t& out) { return Unsigned(&out, 16); }
  bool Int(int& out);
  bool F64(double& out);
  bool Bool(bool& out);

  // A list length. Every element takes at least two bytes (" 0"), so a
  // count the rest of the line cannot hold is rejected before allocating.
  template <typename V>
  bool Count(V& v) {
    uint64_t n = 0;
    if (!U64(n) || n > (s_.size() - pos_) / 2) {
      return false;
    }
    v.resize(n);
    return true;
  }

  // True when only spaces remain.
  bool Done();
  // Everything after the tokens read so far, leading spaces skipped: the
  // free-form tail of a record ("" when the line is exhausted).
  std::string Rest();

 private:
  bool Unsigned(uint64_t* out, int base);
  bool Digits(uint64_t* out, int base);
  void SkipSpaces();
  bool AtTokenEnd() const { return pos_ >= s_.size() || s_[pos_] == ' '; }

  const std::string s_;
  size_t pos_ = 0;
};

// Payload escaping for line-oriented durable formats (run journal,
// checkpoint segments): backslash, newline, and carriage return become
// two-character sequences so an arbitrary payload fits in one record line.
// Unescape returns false on a malformed sequence (the signature of a torn or
// corrupted write).
std::string JournalEscape(const std::string& raw);
bool JournalUnescape(const std::string& escaped, std::string* raw);

}  // namespace elsc

#endif  // SRC_BASE_LINE_CODEC_H_
