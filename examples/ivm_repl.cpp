// An interactive IVM shell over serve::Session, the command interpreter
// IvmServer runs behind its sockets: the same language and the same
// replies, without a network. One command per line; a literal "\n" in a
// line stands for a newline inside the command, so a BATCH fits on one
// line, as in `ivm_server --script`:
//
//   ivm> REGISTER CREATE TABLE R (a, b); SELECT R.a, COUNT(*) FROM R GROUP BY R.a;
//   OK q0
//   ivm> BATCH\nR 1 2\nR 1 3\n-R 1 2
//   OK deltas=3 routed=1
//   ivm> ENUMERATE q0
//   OK rows=1
//   1 -> 1
//
// The commands (REGISTER, UPDATE, BATCH, ENUMERATE, STATS, EXPLAIN, PING,
// QUIT) are documented in src/incr/serve/session.h. Blank lines and lines
// starting with '#' are skipped. QUIT exits; at the end of the input
// without a QUIT the shell runs a demo script.
//
// Engine configuration comes from the environment (EngineOptions::FromEnv):
// INCR_THREADS and INCR_MORSEL_BYTES for batch maintenance;
// INCR_STORAGE_BACKEND, INCR_STORAGE_POOL_BYTES, INCR_STORAGE_PAGE_BYTES
// and INCR_STORAGE_SPILL_DIR for paged view state; INCR_METRICS_PATH and
// INCR_METRICS_INTERVAL_MS for a Prometheus textfile export (written once
// more at exit); INCR_TRACE=<file> for a Chrome trace, written at exit
// from the flight recorder's rings (the last 256 events per thread).
#include <cstdio>
#include <iostream>
#include <iterator>
#include <string>

#include "incr/engines/engine_options.h"
#include "incr/obs/export.h"
#include "incr/serve/session.h"

namespace {

// A COUNT view over a join with string values, its AVG twin, a batch that
// retracts a row, and the plan with live per-node statistics.
const char* const kDemoScript[] = {
    "REGISTER CREATE TABLE Emp (who, dept, salary); CREATE TABLE Dept "
    "(dept, floor); SELECT Emp.dept, Dept.floor, COUNT(*) FROM Emp, Dept "
    "WHERE Emp.dept = Dept.dept GROUP BY Emp.dept, Dept.floor;",
    "REGISTER SELECT Emp.dept, AVG(Emp.salary) FROM Emp GROUP BY Emp.dept;",
    "UPDATE Emp alice eng 120",
    "UPDATE Emp bob eng 100",
    "UPDATE Emp carol sales 90",
    "UPDATE Dept eng 3",
    "ENUMERATE q0",
    "BATCH\\n+Dept sales 1\\n-Emp bob eng 100",
    "ENUMERATE q0",
    "ENUMERATE q1",
    "EXPLAIN q0 analyze",
    "QUIT",
};

}  // namespace

int main() {
  incr::serve::Session session(incr::EngineOptions::FromEnv());
  std::printf("incr shell — commands as in serve/session.h, QUIT to exit\n");
  size_t demo = 0;
  bool quit = false;
  std::string line;
  while (!quit) {
    std::printf("ivm> ");
    if (!std::getline(std::cin, line)) {
      if (demo == std::size(kDemoScript)) break;
      line = kDemoScript[demo++];
      std::printf("%s\n", line.c_str());
    }
    const size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    const std::string reply =
        session.Execute(incr::serve::UnescapeNewlines(line), &quit);
    std::printf("%s\n", reply.c_str());
  }
  incr::obs::StopExporter();  // the final metrics write, when exporting
  return 0;
}
