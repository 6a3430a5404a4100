// Session: the one command interpreter of the continuous-query service —
// a socket-free map from a command to its reply over a registry of SQL
// queries (compiled by sql/sql.h into ring-typed view trees), a shared
// table catalog and a value dictionary. IvmServer's workers call it for
// every frame; the REPL (examples/ivm_repl.cpp) calls it for every line.
//
// Command language (one command per protocol frame or script line;
// replies are UTF-8 text):
//
//   REGISTER <sql>            -> OK q<N>          (DDL may be inline; the
//                                                  catalog persists across
//                                                  registrations)
//   UPDATE [+|-]<rel> v.. [xN]-> OK routed=<q>    (one delta, fanned out)
//   BATCH\n<delta lines>      -> OK deltas=<k> routed=<q>  (all-or-nothing
//                                                  parse, one engine batch
//                                                  per affected tree; q
//                                                  counts the queries)
//   ENUMERATE q<N> [limit]    -> OK rows=<k>\n<sorted "v.. -> payload" rows>
//                                 (the first k = min(limit, n) rows of the
//                                  snapshot's enumeration order, and k counts
//                                  them: O(k) to enumerate and render under
//                                  the pin, then O(k log k) to sort by bytes
//                                  after it; no limit means all n rows)
//   STATS q<N>                -> OK {json}        (update count; update,
//                                                  maintain-lock wait and
//                                                  enumerate p50/p99)
//   EXPLAIN q<N> [analyze]    -> OK {json}        (obs/explain.h report)
//   PING                      -> OK pong
//   QUIT                      -> OK bye           (*close_after is set)
//
// Errors reply "ERR <reason>" and leave the session unchanged. Values are
// integers or identifiers, through the token codec of data/value.h.
//
// Maintenance is shared: registered queries over the same join and
// group-by (the same canonical CQ text) are maintained by one view tree.
// A COUNT or plain query reads the count component of an AVG or COVAR
// tree; an AVG or COVAR query registered after a COUNT one widens the
// COUNT tree, rebuilding it in the wider ring from its live atoms. A SUM
// query, or an aggregate over another column, gets a tree of its own.
// Replies stay per query id, and a BATCH applies each tree once.
//
// Thread safety: Execute may be called from many threads at once.
// REGISTER takes the registry lock exclusively; UPDATE/BATCH/ENUMERATE/
// STATS/EXPLAIN take it shared. Each maintained tree additionally has a
// maintenance mutex serializing its writers and EXPLAIN (which reads the
// maintainer's live state) — the snapshot contract wants ONE maintainer
// per tree, and serialized maintainers are exactly that. ENUMERATE never
// takes the maintenance mutex: it pins an epoch snapshot and reads
// lock-free. The dictionary has a lock of its own.
#ifndef INCR_SERVE_SESSION_H_
#define INCR_SERVE_SESSION_H_

#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "incr/data/value.h"
#include "incr/engines/engine_options.h"
#include "incr/sql/sql.h"
#include "incr/util/status.h"

namespace incr {
namespace serve {

/// A ring-typed view-tree engine and its maintenance mutex behind a
/// type-erasing interface (the ring is picked by the aggregate, so the
/// session cannot name it statically). Implemented by TypedTree<R> in
/// session.cc.
class MaintainedTree;
/// One registered continuous query: the compiled SQL, its variable names,
/// its metrics and the MaintainedTree it reads.
class RegisteredQuery;
struct NamedDelta;

class Session {
 public:
  /// `engine` configures every registered query's engine; snapshot_reads
  /// is forced on, since ENUMERATE reads epoch snapshots.
  explicit Session(EngineOptions engine = {});
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Executes one command, returns the reply ("OK ..." / "ERR ...").
  /// Sets *close_after when the reply should be the last one (QUIT).
  std::string Execute(std::string_view cmd, bool* close_after);

  /// Registered queries so far (monotonic ids q0, q1, ...).
  size_t num_queries() const;

  /// View trees maintaining them (tests: queries over one join share one).
  size_t num_trees() const;

 private:
  std::string CmdRegister(const std::string& sql_text);
  std::string CmdUpdate(const std::string& args);
  std::string CmdBatch(const std::string& body);
  std::string CmdEnumerate(const std::string& args);
  std::string CmdStats(const std::string& args);
  std::string CmdExplain(const std::string& args);

  /// Parses "Rel v1 .. vn [xN]" (optional +/- prefix) into *out; on
  /// failure returns false with the reason in *err.
  bool ParseNamedDelta(const std::string& line, NamedDelta* out,
                       std::string* err);

  /// Resolves "q<N>" under a caller-held shared registry lock.
  RegisteredQuery* FindQuery(const std::string& token);

  StatusOr<Value> ParseValue(const std::string& tok);

  const EngineOptions engine_opts_;

  // Query registry, the trees maintaining the queries, and the shared SQL
  // catalog (tables declared once per session).
  mutable std::shared_mutex reg_mu_;
  std::map<int, std::unique_ptr<RegisteredQuery>> queries_;
  std::vector<std::unique_ptr<MaintainedTree>> trees_;
  sql::SqlCatalog catalog_;
  int next_query_id_ = 0;

  // String interning for non-numeric delta values (the shared token codec
  // in data/value.h: codes offset by kStringCodeBase, integer literals at
  // or above it rejected).
  std::mutex dict_mu_;
  Dictionary dict_;
};

/// Scripts (ivm_server --script, the REPL) hold one command per line and
/// spell the newlines inside a command (BATCH bodies) as a literal "\n":
/// returns `line` with each "\n" escape turned into a newline.
std::string UnescapeNewlines(std::string_view line);

}  // namespace serve
}  // namespace incr

#endif  // INCR_SERVE_SESSION_H_
