#ifndef XPSTREAM_COMMON_MEMORY_STATS_H_
#define XPSTREAM_COMMON_MEMORY_STATS_H_

/// \file
/// Memory accounting shared by every streaming engine. The paper's bounds
/// are stated in *bits of algorithm state*; the stats here expose both the
/// information-theoretic count the theorems use (frontier tuples, buffered
/// characters, automaton transitions) and the raw byte footprint of the
/// concrete data structures, so benchmarks can report either.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>

namespace xpstream {

/// Snapshot-and-peak counters for one engine run. Engines update the
/// current value; the peak is maintained automatically.
class MemoryStats {
 public:
  /// A single named gauge with peak tracking.
  class Gauge {
   public:
    void Set(size_t v) {
      current_ = v;
      peak_ = std::max(peak_, v);
    }
    void Add(size_t v) { Set(current_ + v); }
    void Sub(size_t v) { Set(current_ >= v ? current_ - v : 0); }
    size_t current() const { return current_; }
    size_t peak() const { return peak_; }
    void Reset() { current_ = peak_ = 0; }

    /// Adds another gauge's readings. Summed peaks are an upper bound on
    /// the true combined peak (the parts may peak at different moments).
    void Accumulate(const Gauge& other) {
      current_ += other.current_;
      peak_ += other.peak_;
    }

   private:
    size_t current_ = 0;
    size_t peak_ = 0;
  };

  /// Number of live frontier/table entries (or automaton stack entries).
  Gauge& table_entries() { return table_entries_; }
  const Gauge& table_entries() const { return table_entries_; }

  /// Bytes of buffered document text.
  Gauge& buffered_bytes() { return buffered_bytes_; }
  const Gauge& buffered_bytes() const { return buffered_bytes_; }

  /// Automaton states materialized (0 for non-automaton engines).
  Gauge& automaton_states() { return automaton_states_; }
  const Gauge& automaton_states() const { return automaton_states_; }

  /// Automaton transition-table entries (0 for non-automaton engines).
  Gauge& automaton_transitions() { return automaton_transitions_; }
  const Gauge& automaton_transitions() const { return automaton_transitions_; }

  /// Raw bytes of auxiliary structures (stacks, counters).
  Gauge& auxiliary_bytes() { return auxiliary_bytes_; }
  const Gauge& auxiliary_bytes() const { return auxiliary_bytes_; }

  /// Bytes held by the pipeline's shared name SymbolTable (set by the
  /// Engine facade, which owns the table). Charged once per distinct
  /// name for the whole pipeline — the interning that removes per-event
  /// name bytes from buffered_bytes and string work from the engines.
  Gauge& symbol_bytes() { return symbol_bytes_; }
  const Gauge& symbol_bytes() const { return symbol_bytes_; }

  /// Heap bytes retained by the parse substrate's per-document arenas
  /// (decoded entities, streaming-mode copies; set by the Engine
  /// facade). Blocks are recycled across documents, so this tracks the
  /// high-water scratch of the zero-copy parser, not live per-event
  /// allocations. Excluded from PeakBytes()/PeakStateBits(): those
  /// account *algorithm state* in the paper's sense, while the arena is
  /// transport plumbing shared by every engine.
  Gauge& arena_bytes() { return arena_bytes_; }
  const Gauge& arena_bytes() const { return arena_bytes_; }

  /// Estimated total peak footprint in bytes, combining all gauges with
  /// `bytes_per_entry` charged per table entry / state / transition.
  size_t PeakBytes(size_t bytes_per_entry = 16) const;

  /// The quantity the paper's Theorem 8.8 accounts: peak table entries
  /// times per-tuple bits (log|Q| + log d + log w) plus buffered bits.
  /// Callers supply the per-tuple bit width.
  size_t PeakStateBits(size_t bits_per_tuple) const;

  void Reset();

  /// Gauge-wise accumulation, used to aggregate the stats of several
  /// engines sharing one scan (e.g. a bank of per-subscription filters).
  void Accumulate(const MemoryStats& other);

  std::string ToString() const;

 private:
  Gauge table_entries_;
  Gauge buffered_bytes_;
  Gauge automaton_states_;
  Gauge automaton_transitions_;
  Gauge auxiliary_bytes_;
  Gauge symbol_bytes_;
  Gauge arena_bytes_;
};

/// Number of bits needed to represent values in [0, n]; at least 1.
size_t BitWidth(size_t n);

}  // namespace xpstream

#endif  // XPSTREAM_COMMON_MEMORY_STATS_H_
