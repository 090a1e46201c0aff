#ifndef XPSTREAM_TESTS_TEST_UTIL_H_
#define XPSTREAM_TESTS_TEST_UTIL_H_

/// \file
/// Helpers for loading checked-in documents from tests/testdata/. The
/// directory is baked in at configure time via XPSTREAM_TESTDATA_DIR, so
/// tests work from any working directory CTest chooses. Also the
/// parser's count-mode differential, shared by the chunk and tokenizer
/// differential tests.

#include <string>
#include <string_view>
#include <vector>

#include "xml/event.h"
#include "xml/stats.h"

namespace xpstream {
namespace testutil {

/// Returns the absolute path of a file under tests/testdata/.
std::string TestDataPath(std::string_view name);

/// Reads a testdata file and returns its contents. Aborts with a message on
/// a missing or unreadable file — a missing fixture is a harness bug, not a
/// test outcome.
std::string LoadTestData(std::string_view name);

/// Reads a testdata file holding one XML document per non-empty line
/// (used for multi-document session fixtures).
std::vector<std::string> LoadTestDataLines(std::string_view name);

/// How one differential parse is configured.
struct ParseSetup {
  bool interned = false;          ///< intern names into a fresh table
  bool legacy_tokenizer = false;  ///< XmlParserOptions::legacy_tokenizer
  size_t entity_cap = 0;          ///< SetMaxEntityExpansionBytes
  size_t depth_cap = 0;           ///< SetMaxElementDepth
};

/// Everything observable from one parse.
struct ParseRecord {
  EventBuffer events;  ///< what the sink received, deep-copied
  std::string status;  ///< the final status rendering
  /// A collector fed every event the sink received and, in count mode,
  /// every event the parser counted.
  DocumentStats stats;
  size_t names = 0;  ///< symbol-table size afterwards (0 uninterned)
};

/// Parses `chunks` in order, stopping at the first error like a real
/// caller. The sink switches the parser to count mode once it has
/// received `count_from` events (0 = before the first Feed,
/// kNoEventOrdinal = never).
ParseRecord ParseRecorded(const std::vector<std::string_view>& chunks,
                          const ParseSetup& setup, size_t count_from);

/// The count-mode differential. Parses `chunks` in full, then again
/// switching to count mode at every event k from 0 to the full parse's
/// event count, each under no depth cap, a cap one below the
/// document's depth and a cap at it. Returns "" when every counted
/// parse agrees with its full parse, and otherwise describes the first
/// disagreement. Agreement means: the sink saw the full parse's first
/// k events, then only endDocument (when the parse succeeds); the
/// status string is identical; the collectors agree field by field;
/// and the same number of names was interned.
std::string CountModeDisagreement(const std::vector<std::string_view>& chunks,
                                  ParseSetup setup);

/// `xml` cut into chunks of `width` bytes (0 = one whole chunk).
std::vector<std::string_view> FixedChunks(std::string_view xml, size_t width);

}  // namespace testutil
}  // namespace xpstream

#endif  // XPSTREAM_TESTS_TEST_UTIL_H_
