#ifndef XPSTREAM_XPATH_VALUE_H_
#define XPSTREAM_XPATH_VALUE_H_

/// \file
/// The XPath value model used by predicate evaluation (paper §3.1.3):
/// atomic values (numbers, strings, booleans) and flat sequences of
/// atomics, plus the standard conversions — most importantly the Effective
/// Boolean Value (EBV) function that gives predicates their existential
/// semantics.

#include <string>
#include <vector>

#include "xpath/ast.h"

namespace xpstream {

enum class ValueKind : uint8_t {
  kNumber,
  kString,
  kBoolean,
  kSequence,
};

/// An XPath value. Sequences are always flat and contain only atomics
/// (nested sequence construction flattens, per the XQuery data model).
class Value {
 public:
  Value() : kind_(ValueKind::kString) {}

  static Value Number(double v);
  static Value String(std::string v);
  static Value Boolean(bool v);
  static Value Sequence(std::vector<Value> items);
  static Value EmptySequence();

  ValueKind kind() const { return kind_; }
  bool is_atomic() const { return kind_ != ValueKind::kSequence; }

  double number() const { return number_; }
  const std::string& string() const { return string_; }
  bool boolean() const { return boolean_; }
  const std::vector<Value>& sequence() const { return sequence_; }

  /// EBV (paper §3.1.3): booleans are themselves; numbers are true unless
  /// 0 or NaN; strings are true when non-empty; sequences are true when
  /// non-empty.
  bool EffectiveBooleanValue() const;

  /// Casts to number (XPath number()): strings parse or become NaN,
  /// booleans become 0/1. Sequences cast their first item (empty → NaN).
  double ToNumber() const;

  /// Casts to string (XPath string()). Sequences stringify their first
  /// item (empty → "").
  std::string ToString() const;

  /// The atomic items of this value: itself if atomic, else the sequence
  /// contents.
  std::vector<Value> Atomized() const;

  bool operator==(const Value& other) const;

  /// Debug rendering, e.g. `("a", 5)`.
  std::string DebugString() const;

 private:
  ValueKind kind_;
  double number_ = 0;
  std::string string_;
  bool boolean_ = false;
  std::vector<Value> sequence_;
};

/// Typed comparison used by compop evaluation on a pair of *atomic*
/// values. Numeric comparison when either side is a number (the other is
/// cast); boolean comparison when either side is boolean; string
/// comparison otherwise. NaN compares false under every operator, like
/// IEEE and XPath.
bool CompareAtomic(const Value& lhs, CompOp op, const Value& rhs);

/// CompareAtomic's numeric rule: IEEE comparison, except that != is
/// false when either side is NaN.
bool CompareNumbers(double a, CompOp op, double b);

/// Applies an arithmetic operator to two atomics, both cast to number.
/// div by zero yields ±Infinity/NaN per IEEE; idiv/mod on zero yield NaN.
double ApplyArith(const Value& lhs, ArithOp op, const Value& rhs);

}  // namespace xpstream

#endif  // XPSTREAM_XPATH_VALUE_H_
