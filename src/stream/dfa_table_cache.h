#ifndef XPSTREAM_STREAM_DFA_TABLE_CACHE_H_
#define XPSTREAM_STREAM_DFA_TABLE_CACHE_H_

/// \file
/// Read-mostly sharing of lazily determinized transition tables across
/// the consumers of one pipeline (the replicas of an EnginePool, a
/// compaction rebuild's fresh filters). Without it each replica's
/// LazyDfaFilter would re-materialize the same DFA from scratch — N
/// replicas, N copies of an identical table.
///
/// Tables are keyed by the query's canonical key (analysis/canonical):
/// lazy_dfa accepts only linear path queries, where an equal canonical
/// key means an identical step chain, hence identical local-alphabet
/// assignment and an identical subset automaton — the table transfers
/// verbatim. The memoization is semantics-free (Descend recomputes any
/// missing entry), so sharing can never change a verdict.
///
/// Concurrency: Publish/Lookup are mutex-guarded; published tables are
/// immutable (shared_ptr<const>). Filters snapshot a base table at
/// creation, grow a *private* overlay during matching (lock-free), and
/// fold it back via PublishShared only while their engine is between
/// documents — no thread ever reads another's overlay (TSan-checked).

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace xpstream {

/// One immutable lazy-DFA snapshot: states are NFA subset masks interned
/// in discovery order, transitions map (state, local symbol) -> state.
struct LazyDfaTable {
  std::map<uint64_t, int> state_of_mask;
  std::vector<uint64_t> mask_of_state;
  std::map<std::pair<int, int>, int> transitions;
};

class DfaTableCache {
 public:
  /// The current table for `key`, or nullptr when never published.
  std::shared_ptr<const LazyDfaTable> Lookup(const std::string& key) const;

  /// Offers a table for `key`. Keep-larger policy: the entry is replaced
  /// only when the offered table materializes strictly more (states +
  /// transitions) than the stored one — concurrent publishers may have
  /// diverging state numberings, and each filter keeps reading the
  /// id-compatible snapshot it extended, so dropping the smaller offer
  /// is always safe.
  void Publish(const std::string& key,
               std::shared_ptr<const LazyDfaTable> table);

  /// Number of distinct keys with a published table.
  size_t NumTables() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<const LazyDfaTable>> tables_;
};

}  // namespace xpstream

#endif  // XPSTREAM_STREAM_DFA_TABLE_CACHE_H_
