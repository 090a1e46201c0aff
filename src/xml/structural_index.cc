#include "xml/structural_index.h"

#include <algorithm>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace xpstream {

namespace {

// Byte -> StructuralKind + 1, 0 for uninteresting bytes. Classifies the
// bytes a vector step flagged, and the scalar loop's.
struct ClassTable {
  uint8_t v[256] = {};
  constexpr ClassTable() {
    v[static_cast<uint8_t>('<')] = kStructLt + 1;
    v[static_cast<uint8_t>('>')] = kStructGt + 1;
    v[static_cast<uint8_t>('&')] = kStructAmp + 1;
    v[static_cast<uint8_t>('\n')] = kStructNl + 1;
  }
};
constexpr ClassTable kClass;

}  // namespace

void StructuralIndex::Scan(const char* data, size_t begin, size_t end) {
  size_t i = begin;
  // Markup-dense XML runs ~1 structural byte in 4; reserving that up
  // front keeps short-lived tapes (one small document per parser) from
  // paying a realloc chain of push_back growth. Growth at least doubles,
  // so a tape extended by many small ranges reallocates O(log n) times.
  const size_t want = tape_.size() + (end - begin) / 4 + 16;
  if (want > tape_.capacity()) {
    tape_.reserve(std::max(want, 2 * tape_.capacity()));
  }
#if defined(__SSE2__)
  // Vector loop: one 16-byte load and four exact byte compares per
  // step, ORed and packed into one bit per byte; blocks with no
  // structural byte cost nothing further. It never reads past `end`.
  const __m128i lt = _mm_set1_epi8('<');
  const __m128i gt = _mm_set1_epi8('>');
  const __m128i amp = _mm_set1_epi8('&');
  const __m128i nl = _mm_set1_epi8('\n');
  for (; i + 16 <= end; i += 16) {
    const __m128i block =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    const __m128i hits =
        _mm_or_si128(_mm_or_si128(_mm_cmpeq_epi8(block, lt),
                                  _mm_cmpeq_epi8(block, gt)),
                     _mm_or_si128(_mm_cmpeq_epi8(block, amp),
                                  _mm_cmpeq_epi8(block, nl)));
    for (uint32_t mask = static_cast<uint32_t>(_mm_movemask_epi8(hits));
         mask != 0; mask &= mask - 1) {
      const size_t off = i + static_cast<size_t>(__builtin_ctz(mask));
      tape_.push_back(static_cast<uint32_t>(off << 3) |
                      (kClass.v[static_cast<uint8_t>(data[off])] - 1u));
    }
  }
#endif  // SSE2; the scalar loop below covers the tail (and whole
        // ranges on targets without SSE2).
  for (; i < end; ++i) {
    const uint8_t cls = kClass.v[static_cast<uint8_t>(data[i])];
    if (cls != 0) {
      tape_.push_back(static_cast<uint32_t>(i << 3) | (cls - 1u));
    }
  }
}

void StructuralIndex::Rebase(size_t cut, size_t cursor) {
  const uint32_t packed_cut = static_cast<uint32_t>(cut << 3);
  size_t out = 0;
  for (size_t i = cursor; i < tape_.size(); ++i) {
    tape_[out++] = tape_[i] - packed_cut;
  }
  tape_.resize(out);
}

}  // namespace xpstream
