#ifndef XPSTREAM_XML_ARENA_H_
#define XPSTREAM_XML_ARENA_H_

/// \file
/// A bump allocator for per-document parse scratch. The zero-copy event
/// model (xml/event.h) backs `Event::name`/`Event::text` views with one
/// of three storages: the caller's stable input buffer, the pipeline's
/// SymbolTable, or — for everything that must be materialized (entity
/// decodes, chunk-boundary stitching, streaming-mode text) — an Arena.
///
/// The arena trades individual frees for one `Reset()` per document:
/// allocation is a pointer bump, Reset rewinds to the first block and
/// keeps the memory for the next document, so a steady-state document
/// stream performs zero allocator calls per event. Blocks are
/// heap-allocated and never move, so views into arena storage stay valid
/// across further allocations and across moves of the Arena object
/// itself; they die at `Reset()` or destruction.
///
/// Not thread-safe: one Arena belongs to one parser/pipeline at a time,
/// the same single-writer discipline as SymbolTable.

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

namespace xpstream {

class Arena {
 public:
  /// First-block capacity; subsequent blocks double up to kMaxBlockBytes.
  static constexpr size_t kMinBlockBytes = 4 * 1024;
  static constexpr size_t kMaxBlockBytes = 1024 * 1024;

  Arena() = default;
  Arena(Arena&&) = default;
  Arena& operator=(Arena&&) = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Copies `s` into the arena and returns a view of the copy, valid
  /// until Reset()/destruction. Empty input returns an empty view
  /// without touching the arena.
  std::string_view CopyString(std::string_view s) {
    if (s.empty()) return {};
    char* p = AllocUninitialized(s.size());
    __builtin_memcpy(p, s.data(), s.size());
    return {p, s.size()};
  }

  /// Reserves `n` writable bytes (n > 0) and returns their start. The
  /// caller may later return the unused suffix with TrimLast — the
  /// entity decoder reserves the raw token length (decoded output is
  /// never longer) and trims to the decoded size.
  char* AllocUninitialized(size_t n) {
    if (n > remaining_) return AllocSlow(n);
    char* p = cursor_;
    cursor_ += n;
    remaining_ -= n;
    return p;
  }

  /// Returns the trailing `unused` bytes of the most recent
  /// AllocUninitialized to the arena. `unused` must not exceed that
  /// allocation's size.
  void TrimLast(size_t unused) {
    cursor_ -= unused;
    remaining_ += unused;
  }

  /// Rewinds to empty, keeping every allocated block for reuse. All
  /// previously returned views/pointers become invalid.
  void Reset();

  /// Total heap bytes held by the arena's blocks (retained across
  /// Reset) — the `arena_bytes` MemoryStats gauge.
  size_t FootprintBytes() const { return footprint_; }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    size_t size = 0;
  };

  /// Out-of-line refill: advances to the next retained block that fits,
  /// or appends a new one, then bumps from it.
  char* AllocSlow(size_t n);

  std::vector<Block> blocks_;
  size_t active_ = 0;       // blocks_[active_] is the bump target
  char* cursor_ = nullptr;  // next free byte in the active block
  size_t remaining_ = 0;    // free bytes after cursor_
  size_t footprint_ = 0;    // sum of block sizes
};

}  // namespace xpstream

#endif  // XPSTREAM_XML_ARENA_H_
