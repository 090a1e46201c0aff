#ifndef XPSTREAM_XML_STRUCTURAL_INDEX_H_
#define XPSTREAM_XML_STRUCTURAL_INDEX_H_

/// \file
/// The parse pipeline's first stage: a simdjson-style structural
/// pre-scan (Langdale & Lemire, VLDB J. 2019). One sweep over each input
/// chunk finds every byte the tokenizer reads — `<`, `>`, `&` and
/// newline — and records them on a compact tape of (offset, kind)
/// entries. The sweep takes 16 bytes per step with SSE2 (part of the
/// x86-64 baseline): four exact byte compares, ORed and packed into one
/// bit per byte. A scalar loop takes the tail, and whole ranges on
/// targets without SSE2. The second stage (xml/parser.cc's tokenizer)
/// then walks the tape to find token boundaries, count lines, and decide
/// whether a text run needs entity decoding, without ever re-inspecting
/// document bytes.
///
/// Entries are `uint32_t`s packing `offset << 3 | kind`; offsets are
/// relative to the current parse window, and `Rebase()` keeps them valid
/// when the parser compacts its spill buffer, in time proportional to
/// the entries it keeps. One window is limited to 512 MiB
/// (kMaxWindowBytes); the parser splits larger feeds.

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace xpstream {

/// Byte classes recorded on the tape, in the entry's low 3 bits.
enum StructuralKind : uint32_t {
  kStructLt = 0,   // '<'
  kStructGt = 1,   // '>'
  kStructAmp = 2,  // '&'
  kStructNl = 3,   // '\n'
};

class StructuralIndex {
 public:
  /// Offsets are packed into 29 bits.
  static constexpr size_t kMaxWindowBytes = size_t{1} << 29;

  /// Packed tape entry accessors.
  static constexpr size_t OffsetOf(uint32_t entry) { return entry >> 3; }
  static constexpr StructuralKind KindOf(uint32_t entry) {
    return static_cast<StructuralKind>(entry & 7u);
  }

  /// Appends entries for `data[begin..end)`; offsets are absolute
  /// positions in the window `data` points at. Call with monotonically
  /// increasing ranges — the tape must stay sorted.
  void Scan(const char* data, size_t begin, size_t end);

  /// Drops entries below `cut` and shifts the rest down by `cut`,
  /// mirroring the parser erasing a consumed prefix of its window.
  /// `cursor` is the index of the first entry at or past `cut` (the
  /// tokenizer's tape cursor), so only the entries kept are visited.
  void Rebase(size_t cut, size_t cursor);

  void Clear() { tape_.clear(); }

  const std::vector<uint32_t>& tape() const { return tape_; }
  size_t size() const { return tape_.size(); }
  uint32_t entry(size_t i) const { return tape_[i]; }

 private:
  std::vector<uint32_t> tape_;
};

}  // namespace xpstream

#endif  // XPSTREAM_XML_STRUCTURAL_INDEX_H_
