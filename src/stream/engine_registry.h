#ifndef XPSTREAM_STREAM_ENGINE_REGISTRY_H_
#define XPSTREAM_STREAM_ENGINE_REGISTRY_H_

/// \file
/// The string-keyed engine registry behind the public Engine facade.
/// Each engine under src/stream/ registers a MatcherFactory under its
/// name ("naive", "nfa", "lazy_dfa", "frontier", "nfa_index"); the
/// facade resolves EngineOptions::engine through Global().
///
/// Registration lives in each engine's own .cc file (the factory code
/// sits next to the engine it creates) but is *invoked* from the
/// registry's Global() initializer rather than from static initializers
/// in the engine translation units: the library ships as a static
/// archive, and the linker drops archive members nothing references, so
/// a pure registry-driven consumer would silently lose any engine that
/// relied on its own static registrar running.

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "stream/matcher.h"

namespace xpstream {

class EngineRegistry {
 public:
  /// The process-wide registry, with the built-in engines registered.
  static EngineRegistry& Global();

  /// Registers a factory under `name`. Fails with kInvalidArgument on a
  /// duplicate name. Thread-safe; external engines may register here
  /// before creating facades that use them.
  Status Register(const std::string& name, MatcherFactory factory);

  /// Creates a fresh Matcher of the named engine; kNotFound for names
  /// never registered. `context` carries the pipeline's shared
  /// structures (SymbolTable, DocumentProfile); null members let the
  /// matcher own private equivalents.
  Result<std::unique_ptr<Matcher>> CreateMatcher(
      const std::string& name, const PipelineContext& context) const;

  /// Convenience overload: shared SymbolTable only (or fully private
  /// with the default nullptr), no other shared structure.
  Result<std::unique_ptr<Matcher>> CreateMatcher(
      const std::string& name, SymbolTable* symbols = nullptr) const;

  bool Has(const std::string& name) const;

  /// Registered engine names, sorted.
  std::vector<std::string> Names() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, MatcherFactory> factories_;
};

/// Registers a filter-bank engine under `name`: a bank of
/// per-subscription FilterT instances (via FilterT::Create) sharing one
/// SAX scan. The shape every single-query engine registers with.
template <typename FilterT>
void RegisterFilterBankEngine(EngineRegistry& registry, const char* name) {
  Status status = registry.Register(
      name,
      [name](const PipelineContext& context)
          -> Result<std::unique_ptr<Matcher>> {
        return std::unique_ptr<Matcher>(std::make_unique<FilterBankMatcher>(
            name,
            [](const Query* query,
               SymbolTable* table) -> Result<std::unique_ptr<StreamFilter>> {
              auto filter = FilterT::Create(query, table);
              if (!filter.ok()) return filter.status();
              return std::unique_ptr<StreamFilter>(std::move(filter).value());
            },
            context.symbols));
      });
  (void)status;  // duplicate registration is impossible from Global()
}

// Built-in engine registration hooks, one per engine .cc file.
void RegisterNaiveEngine(EngineRegistry& registry);
void RegisterNfaEngine(EngineRegistry& registry);
void RegisterLazyDfaEngine(EngineRegistry& registry);
void RegisterFrontierEngine(EngineRegistry& registry);
void RegisterNfaIndexEngine(EngineRegistry& registry);

}  // namespace xpstream

#endif  // XPSTREAM_STREAM_ENGINE_REGISTRY_H_
