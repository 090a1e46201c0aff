#include "common/memory_stats.h"

#include "common/string_util.h"

namespace xpstream {

size_t MemoryStats::PeakBytes(size_t bytes_per_entry) const {
  return table_entries_.peak() * bytes_per_entry + buffered_bytes_.peak() +
         automaton_states_.peak() * bytes_per_entry +
         automaton_transitions_.peak() * bytes_per_entry +
         auxiliary_bytes_.peak() + symbol_bytes_.peak();
}

size_t MemoryStats::PeakStateBits(size_t bits_per_tuple) const {
  return table_entries_.peak() * bits_per_tuple + buffered_bytes_.peak() * 8 +
         (automaton_states_.peak() + automaton_transitions_.peak()) *
             bits_per_tuple +
         auxiliary_bytes_.peak() * 8;
}

void MemoryStats::Accumulate(const MemoryStats& other) {
  table_entries_.Accumulate(other.table_entries_);
  buffered_bytes_.Accumulate(other.buffered_bytes_);
  automaton_states_.Accumulate(other.automaton_states_);
  automaton_transitions_.Accumulate(other.automaton_transitions_);
  auxiliary_bytes_.Accumulate(other.auxiliary_bytes_);
  symbol_bytes_.Accumulate(other.symbol_bytes_);
  arena_bytes_.Accumulate(other.arena_bytes_);
}

void MemoryStats::Reset() {
  table_entries_.Reset();
  buffered_bytes_.Reset();
  automaton_states_.Reset();
  automaton_transitions_.Reset();
  auxiliary_bytes_.Reset();
  symbol_bytes_.Reset();
  arena_bytes_.Reset();
}

std::string MemoryStats::ToString() const {
  return StringPrintf(
      "table_entries{cur=%zu peak=%zu} buffered_bytes{cur=%zu peak=%zu} "
      "automaton{states=%zu transitions=%zu} aux_bytes{peak=%zu} "
      "symbol_bytes{peak=%zu} arena_bytes{peak=%zu}",
      table_entries_.current(), table_entries_.peak(),
      buffered_bytes_.current(), buffered_bytes_.peak(),
      automaton_states_.peak(), automaton_transitions_.peak(),
      auxiliary_bytes_.peak(), symbol_bytes_.peak(), arena_bytes_.peak());
}

size_t BitWidth(size_t n) {
  size_t bits = 1;
  while (n > 1) {
    n >>= 1;
    ++bits;
  }
  return bits;
}

}  // namespace xpstream
