#include "src/base/line_codec.h"

#include <cctype>
#include <cstdlib>

#include "src/base/string_util.h"

namespace elsc {

bool TokenWriter::U64(uint64_t v) {
  *out_ += std::to_string(v);
  *out_ += ' ';
  return true;
}

bool TokenWriter::Int(int64_t v) {
  *out_ += StrFormat("%lld ", static_cast<long long>(v));
  return true;
}

bool TokenWriter::Hex64(uint64_t v) {
  *out_ += StrFormat("%016llx ", static_cast<unsigned long long>(v));
  return true;
}

bool TokenWriter::F64(double v) {
  *out_ += StrFormat("%a ", v);
  return true;
}

bool TokenReader::Int(int& out) {
  SkipSpaces();
  const bool negative = pos_ < s_.size() && s_[pos_] == '-';
  if (negative) {
    ++pos_;
  }
  uint64_t magnitude = 0;
  const uint64_t limit = negative ? uint64_t{1} << 31 : uint64_t{INT32_MAX};
  if (!Digits(&magnitude, 10) || !AtTokenEnd() || magnitude > limit) {
    return false;
  }
  const int64_t value = static_cast<int64_t>(magnitude);
  out = static_cast<int>(negative ? -value : value);
  return true;
}

bool TokenReader::F64(double& out) {
  SkipSpaces();
  // strtod would skip leading whitespace itself; a tab is not a separator.
  if (pos_ >= s_.size() || std::isspace(static_cast<unsigned char>(s_[pos_]))) {
    return false;
  }
  const char* start = s_.c_str() + pos_;
  char* end = nullptr;
  out = std::strtod(start, &end);
  if (end == start) {
    return false;
  }
  pos_ += static_cast<size_t>(end - start);
  return AtTokenEnd();
}

bool TokenReader::Bool(bool& out) {
  uint64_t v = 0;
  if (!U64(v) || v > 1) {
    return false;
  }
  out = v != 0;
  return true;
}

bool TokenReader::Done() {
  SkipSpaces();
  return pos_ >= s_.size();
}

std::string TokenReader::Rest() {
  SkipSpaces();
  return s_.substr(pos_);
}

bool TokenReader::Unsigned(uint64_t* out, int base) {
  SkipSpaces();
  return Digits(out, base) && AtTokenEnd();
}

// Consumes the longest run of base-`base` digits at the cursor. False when
// there is none or its value does not fit in 64 bits.
bool TokenReader::Digits(uint64_t* out, int base) {
  const size_t start = pos_;
  uint64_t value = 0;
  for (; pos_ < s_.size(); ++pos_) {
    const char c = s_[pos_];
    uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (base == 16 && std::isxdigit(static_cast<unsigned char>(c))) {
      digit = static_cast<uint64_t>(std::tolower(static_cast<unsigned char>(c)) - 'a' + 10);
    } else {
      break;
    }
    if (value > (UINT64_MAX - digit) / static_cast<uint64_t>(base)) {
      return false;
    }
    value = value * static_cast<uint64_t>(base) + digit;
  }
  *out = value;
  return pos_ > start;
}

void TokenReader::SkipSpaces() {
  while (pos_ < s_.size() && s_[pos_] == ' ') {
    ++pos_;
  }
}

std::string JournalEscape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out;
}

bool JournalUnescape(const std::string& escaped, std::string* raw) {
  raw->clear();
  raw->reserve(escaped.size());
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '\\') {
      *raw += escaped[i];
      continue;
    }
    if (++i == escaped.size()) {
      return false;  // Trailing lone backslash: torn write.
    }
    switch (escaped[i]) {
      case '\\': *raw += '\\'; break;
      case 'n': *raw += '\n'; break;
      case 'r': *raw += '\r'; break;
      default: return false;
    }
  }
  return true;
}

}  // namespace elsc
