#include "incr/util/env.h"

#include <cstdio>
#include <cstdlib>

namespace incr {

bool ParseEnvInt(const char* name, const char* value, long long min,
                 long long max, long long* out) {
  char* end = nullptr;
  long long v = std::strtoll(value, &end, 10);
  if (end == value || *end != '\0') {
    std::fprintf(stderr, "incr: ignoring %s='%s' (not an integer)\n", name,
                 value);
    return false;
  }
  if (v < min || v > max) {
    std::fprintf(stderr,
                 "incr: ignoring %s=%lld (outside [%lld, %lld])\n", name, v,
                 min, max);
    return false;
  }
  *out = v;
  return true;
}

}  // namespace incr
