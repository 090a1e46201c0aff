#ifndef XPSTREAM_ANALYSIS_TRUTH_SET_H_
#define XPSTREAM_ANALYSIS_TRUTH_SET_H_

/// \file
/// Truth sets (paper Definition 5.6). For a univariate atomic predicate P,
/// TRUTH(P) is the set of strings that satisfy P after substitution for
/// its variable; each query node u is assigned TRUTH(u) — TRUTH(P) when u
/// is the succession leaf of a predicate variable, the universal set S
/// otherwise.
///
/// Membership is decided exactly (substitute and evaluate). The prefix
/// question "is α a prefix of some member?" — needed by the prefix
/// sunflower property (Def. 5.17) and canonical document construction — is
/// answered by a sound symbolic case analysis with a conservative
/// kUnknown fallback.
///
/// Special case: a bare existence predicate "[b]" is treated as purely
/// structural (TRUTH = S). The literal Def. 5.6 would exclude the empty
/// string (EBV("") = false), which contradicts Lemma 5.10 on documents
/// with empty elements; the paper implicitly assumes non-empty content.

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "xpath/ast.h"
#include "xpath/value.h"

namespace xpstream {

class TruthSet {
 public:
  enum class Tri { kNo, kYes, kUnknown };

  /// The universal set S.
  static TruthSet Universal();

  /// TRUTH(P) for the atomic predicate rooted at `root` whose single
  /// variable is the kPathRef leaf `variable`.
  static TruthSet FromAtomicPredicate(const ExprNode* root,
                                      const ExprNode* variable);

  /// True when constructed as Universal (a syntactic property; a
  /// tautological predicate still reports false here).
  bool is_universal() const { return root_ == nullptr; }

  /// Exact membership: substitute `value` for the variable and evaluate.
  bool Contains(const std::string& value) const;

  /// Sound approximation of "alpha ∈ PREFIX(TRUTH)": kNo is definite.
  Tri PrefixOfMember(const std::string& alpha) const;

  /// Candidate strings worth probing with Contains() when searching for
  /// members / non-members (derived from the predicate's constants).
  std::vector<std::string> SampleCandidates() const;

  const ExprNode* predicate_root() const { return root_; }

  /// The kPathRef leaf the value is substituted for (nullptr when
  /// universal).
  const ExprNode* variable() const { return variable_; }

 private:
  const ExprNode* root_ = nullptr;      // nullptr = universal
  const ExprNode* variable_ = nullptr;
};

/// A string value under test by ValueTest: the text plus its XPath
/// number, parsed on first use and then shared by every test applied
/// to the same value.
class CapturedValue {
 public:
  explicit CapturedValue(std::string_view text) : text_(text) {}

  std::string_view text() const { return text_; }

  /// number(text): NaN when the text is not an XPath number.
  double number();

 private:
  std::string_view text_;
  bool parsed_ = false;
  double number_ = 0;
};

/// TRUTH(u) compiled at subscription time into a flat test on the
/// captured value. The common atomic predicates — the variable compared
/// with a constant, contains(var, "s") and starts-with(var, "s") —
/// become one compare; every other predicate stays generic and
/// substitutes into the expression tree (TruthSet::Contains). Accepts
/// equals TruthSet::Contains on every value, with xpath/value's
/// CompareAtomic semantics: ordering operators compare numbers, string
/// (in)equality compares the raw text, and NaN fails every operator.
class ValueTest {
 public:
  /// Compiles `truth`, which must outlive the test when generic.
  static ValueTest Compile(const TruthSet& truth);

  bool is_universal() const { return kind_ == Kind::kUniversal; }

  /// True when the predicate is not one of the compiled forms and
  /// Accepts substitutes into the expression tree.
  bool is_generic() const { return kind_ == Kind::kGeneric; }

  /// Membership of `value` in the compiled truth set.
  bool Accepts(CapturedValue* value) const;

 private:
  enum class Kind : uint8_t {
    kUniversal,   ///< every value
    kNumber,      ///< number(value) op number_
    kString,      ///< value op string_, op is = or !=
    kContains,    ///< contains(value, string_)
    kStartsWith,  ///< starts-with(value, string_)
    kGeneric,     ///< generic_.Contains(value)
  };

  Kind kind_ = Kind::kUniversal;
  CompOp op_ = CompOp::kEq;
  double number_ = 0;
  std::string string_;
  TruthSet generic_;
};

/// Evaluates an expression tree in which the kPathRef leaf `variable`
/// (possibly nullptr) is bound to `binding`. All values are atomic. Other
/// kPathRef leaves evaluate to the empty sequence.
Value EvalExprWithBinding(const ExprNode* expr, const ExprNode* variable,
                          const Value& binding);

/// Per-node truth set assignment (Def. 5.6) for a univariate conjunctive
/// query.
class TruthSetMap {
 public:
  /// Fails with kUnsupported if the query is not univariate-conjunctive.
  static Result<TruthSetMap> Build(const Query& query);

  const TruthSet& Get(const QueryNode* node) const;

  /// Heuristic probe for Def. 5.7 value-restriction: returns true when a
  /// probe string is provably outside TRUTH(node).
  bool IsValueRestricted(const QueryNode* node) const;

 private:
  std::map<const QueryNode*, TruthSet> map_;
  TruthSet universal_ = TruthSet::Universal();
};

/// Decomposes a conjunctive predicate into its atomic predicates
/// (Def. 5.3/5.4): the predicate itself, or the args of a top-level
/// conjunction (nested conjunctions are flattened).
std::vector<const ExprNode*> AtomicPredicatesOf(const ExprNode* predicate);

/// All kPathRef leaves under `expr`.
std::vector<const ExprNode*> PathRefsUnder(const ExprNode* expr);

}  // namespace xpstream

#endif  // XPSTREAM_ANALYSIS_TRUTH_SET_H_
