// Values are dictionary-encoded 64-bit integers. Workloads generate integer
// keys directly; string domains (e.g. company names in the IMDB-like
// workload) are interned through Dictionary.
#ifndef INCR_DATA_VALUE_H_
#define INCR_DATA_VALUE_H_

#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "incr/util/status.h"

namespace incr {

/// A data value: either a raw integer or a dictionary code for a string.
using Value = int64_t;

/// Interns strings to dense Value codes and back.
class Dictionary {
 public:
  /// Returns the code of `s`, interning it if new. Codes are dense from 0.
  Value Intern(std::string_view s);

  /// Looks up a previously interned string; returns nullptr if unknown.
  const std::string* Lookup(Value code) const;

  size_t size() const { return strings_.size(); }

 private:
  std::unordered_map<std::string, Value> codes_;
  std::vector<std::string> strings_;
};

/// The text-token codec of the command language (serve/session.h). An
/// integer literal below kStringCodeBase stands for itself; any other token
/// is a string, encoded as kStringCodeBase + its dictionary code. Literals
/// at or above the base, and literals outside int64, are rejected, so an
/// integer can never alias an interned string. At 2^62 the base leaves
/// every 10-digit ID and every Unix timestamp, in seconds through
/// nanoseconds, to stand for itself. Encoded strings live only in a
/// session's memory: nothing persists them, so the base may move again.
inline constexpr Value kStringCodeBase = Value{1} << 62;

/// Parses one value token; `intern(const std::string&) -> Value` supplies
/// the dictionary code of a string token (callers sharing a Dictionary
/// across threads lock inside it).
template <typename Intern>
StatusOr<Value> ParseToken(const std::string& tok, Intern&& intern) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(tok.c_str(), &end, 10);
  if (end == tok.c_str() || *end != '\0') {
    return kStringCodeBase + intern(tok);  // not an integer literal
  }
  if (errno == ERANGE) {
    return Status::InvalidArgument("integer out of range: " + tok);
  }
  if (v >= kStringCodeBase) {
    return Status::InvalidArgument(
        "integer " + tok + " is in the reserved string-code range (>= " +
        std::to_string(kStringCodeBase) + ")");
  }
  return Value{v};
}

/// Appends the decimal digits of `v` to `out` (std::to_chars, no
/// temporary string).
inline void AppendInt(std::string& out, int64_t v) {
  char buf[20];  // "-9223372036854775808"
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

/// Inverse of ParseToken, appended to `out`: the string of a string code,
/// else the integer.
void AppendToken(std::string& out, Value v, const Dictionary& dict);

}  // namespace incr

#endif  // INCR_DATA_VALUE_H_
