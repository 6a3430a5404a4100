// Bounded parsing of integer environment variables, shared by every reader
// of the INCR_* configuration surface (EngineOptions::FromEnv,
// ThreadPool::DefaultThreads).
#ifndef INCR_UTIL_ENV_H_
#define INCR_UTIL_ENV_H_

namespace incr {

/// Parses `value`, the value of environment variable `name`, as an integer
/// in [min, max]. Returns false (leaving *out untouched) with a one-line
/// stderr warning when it is malformed or out of range — the caller keeps
/// its default.
bool ParseEnvInt(const char* name, const char* value, long long min,
                 long long max, long long* out);

}  // namespace incr

#endif  // INCR_UTIL_ENV_H_
