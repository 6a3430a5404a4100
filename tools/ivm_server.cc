// ivm_server: the continuous-query server as a process, plus a scripted
// client mode for CI smoke sessions.
//
//   ivm_server [--port P] [--host H] [--workers N]
//       Serve until SIGINT/SIGTERM. Prints "listening on <host>:<port>"
//       (the resolved port — useful with --port 0) and, on shutdown,
//       "bye" after a graceful Stop(). Engine configuration comes from
//       the environment (EngineOptions::FromEnv), as in the REPL:
//       INCR_THREADS, INCR_MORSEL_BYTES, INCR_STORAGE_*,
//       INCR_METRICS_PATH and INCR_METRICS_INTERVAL_MS (the file is
//       written once more before "bye"), INCR_TRACE=<file> for a Chrome
//       trace of the recorder's rings at exit, INCR_OBS=off.
//
//   ivm_server --script FILE --port P [--host H]
//       Client mode: send each non-empty, non-'#' line of FILE as one
//       command frame and print every reply as
//
//         <<< <command>
//         >>> <reply>
//
//       BATCH bodies are inlined with '\n' escapes in the script
//       ("BATCH\nR 1 2\nS 2 3" as one line: BATCH\nR 1 2\nS 2 3 written
//       with literal backslash-n). Exits non-zero if any reply is ERR
//       and the line was not prefixed with '!' (expected-error marker).
#include <signal.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>

#include "incr/engines/engine_options.h"
#include "incr/obs/export.h"
#include "incr/serve/client.h"
#include "incr/serve/server.h"
#include "incr/serve/session.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

int RunScript(const std::string& path, const std::string& host,
              uint16_t port) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open script '%s'\n", path.c_str());
    return 2;
  }
  auto client = incr::serve::Client::Connect(host, port);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 2;
  }
  int failures = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    bool expect_err = line[start] == '!';
    if (expect_err) start = line.find_first_not_of(" \t", start + 1);
    if (start == std::string::npos) continue;
    std::string cmd =
        incr::serve::UnescapeNewlines(std::string_view(line).substr(start));
    std::printf("<<< %s\n", cmd.c_str());
    auto reply = client->Call(cmd);
    if (!reply.ok()) {
      std::fprintf(stderr, ">>> transport error: %s\n",
                   reply.status().ToString().c_str());
      return 2;
    }
    std::printf(">>> %s\n", reply->c_str());
    bool is_err = reply->rfind("ERR", 0) == 0;
    if (is_err != expect_err) {
      std::fprintf(stderr, "unexpected %s reply for: %s\n",
                   is_err ? "ERR" : "OK", cmd.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  incr::serve::ServerOptions opts;
  std::string script;
  bool have_port = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--port") {
      const char* v = next();
      if (v == nullptr) {
        std::fprintf(stderr, "--port needs a value\n");
        return 2;
      }
      opts.port = static_cast<uint16_t>(std::atoi(v));
      have_port = true;
    } else if (arg == "--host") {
      const char* v = next();
      if (v == nullptr) {
        std::fprintf(stderr, "--host needs a value\n");
        return 2;
      }
      opts.host = v;
    } else if (arg == "--workers") {
      const char* v = next();
      if (v == nullptr) {
        std::fprintf(stderr, "--workers needs a value\n");
        return 2;
      }
      opts.workers = static_cast<size_t>(std::atoi(v));
    } else if (arg == "--script") {
      const char* v = next();
      if (v == nullptr) {
        std::fprintf(stderr, "--script needs a value\n");
        return 2;
      }
      script = v;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: ivm_server [--host H] [--port P] [--workers N]\n"
          "       ivm_server --script FILE --port P [--host H]\n"
          "environment (server mode): INCR_THREADS INCR_MORSEL_BYTES\n"
          "  INCR_STORAGE_BACKEND INCR_STORAGE_POOL_BYTES\n"
          "  INCR_STORAGE_PAGE_BYTES INCR_STORAGE_SPILL_DIR INCR_METRICS_PATH\n"
          "  INCR_METRICS_INTERVAL_MS INCR_MAX_RETAINED_EPOCHS INCR_TRACE\n"
          "  INCR_OBS\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag '%s' (try --help)\n", arg.c_str());
      return 2;
    }
  }

  if (!script.empty()) {
    if (!have_port) {
      std::fprintf(stderr, "--script needs --port\n");
      return 2;
    }
    return RunScript(script, opts.host, opts.port);
  }

  opts.engine = incr::EngineOptions::FromEnv();
  incr::serve::IvmServer server(opts);
  incr::Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("listening on %s:%u\n", opts.host.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  ::signal(SIGINT, HandleSignal);
  ::signal(SIGTERM, HandleSignal);
  sigset_t empty;
  sigemptyset(&empty);
  while (!g_stop.load()) {
    struct timespec ts {0, 100 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  server.Stop();
  incr::obs::StopExporter();  // the final metrics write, when exporting
  std::printf("bye\n");
  return 0;
}
