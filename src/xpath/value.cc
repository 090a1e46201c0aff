#include "xpath/value.h"

#include <cmath>
#include <limits>

#include "common/string_util.h"

namespace xpstream {

Value Value::Number(double v) {
  Value out;
  out.kind_ = ValueKind::kNumber;
  out.number_ = v;
  return out;
}

Value Value::String(std::string v) {
  Value out;
  out.kind_ = ValueKind::kString;
  out.string_ = std::move(v);
  return out;
}

Value Value::Boolean(bool v) {
  Value out;
  out.kind_ = ValueKind::kBoolean;
  out.boolean_ = v;
  return out;
}

Value Value::Sequence(std::vector<Value> items) {
  Value out;
  out.kind_ = ValueKind::kSequence;
  // Flatten nested sequences so sequences always hold atomics.
  for (Value& item : items) {
    if (item.kind() == ValueKind::kSequence) {
      for (const Value& inner : item.sequence()) {
        out.sequence_.push_back(inner);
      }
    } else {
      out.sequence_.push_back(std::move(item));
    }
  }
  return out;
}

Value Value::EmptySequence() { return Sequence({}); }

bool Value::EffectiveBooleanValue() const {
  switch (kind_) {
    case ValueKind::kBoolean:
      return boolean_;
    case ValueKind::kNumber:
      return number_ != 0 && !std::isnan(number_);
    case ValueKind::kString:
      return !string_.empty();
    case ValueKind::kSequence:
      return !sequence_.empty();
  }
  return false;
}

double Value::ToNumber() const {
  switch (kind_) {
    case ValueKind::kNumber:
      return number_;
    case ValueKind::kBoolean:
      return boolean_ ? 1.0 : 0.0;
    case ValueKind::kString: {
      auto parsed = ParseXPathNumber(string_);
      return parsed.has_value() ? *parsed
                                : std::numeric_limits<double>::quiet_NaN();
    }
    case ValueKind::kSequence:
      if (sequence_.empty()) {
        return std::numeric_limits<double>::quiet_NaN();
      }
      return sequence_.front().ToNumber();
  }
  return std::numeric_limits<double>::quiet_NaN();
}

std::string Value::ToString() const {
  switch (kind_) {
    case ValueKind::kNumber:
      return FormatXPathNumber(number_);
    case ValueKind::kBoolean:
      return boolean_ ? "true" : "false";
    case ValueKind::kString:
      return string_;
    case ValueKind::kSequence:
      return sequence_.empty() ? "" : sequence_.front().ToString();
  }
  return "";
}

std::vector<Value> Value::Atomized() const {
  if (kind_ == ValueKind::kSequence) return sequence_;
  return {*this};
}

bool Value::operator==(const Value& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case ValueKind::kNumber:
      return number_ == other.number_ ||
             (std::isnan(number_) && std::isnan(other.number_));
    case ValueKind::kBoolean:
      return boolean_ == other.boolean_;
    case ValueKind::kString:
      return string_ == other.string_;
    case ValueKind::kSequence:
      return sequence_ == other.sequence_;
  }
  return false;
}

std::string Value::DebugString() const {
  switch (kind_) {
    case ValueKind::kNumber:
      return FormatXPathNumber(number_);
    case ValueKind::kBoolean:
      return boolean_ ? "true()" : "false()";
    case ValueKind::kString:
      return "\"" + string_ + "\"";
    case ValueKind::kSequence: {
      std::string out = "(";
      for (size_t i = 0; i < sequence_.size(); ++i) {
        if (i > 0) out += ", ";
        out += sequence_[i].DebugString();
      }
      return out + ")";
    }
  }
  return "?";
}

bool CompareNumbers(double a, CompOp op, double b) {
  switch (op) {
    case CompOp::kEq:
      return a == b;
    case CompOp::kNe:
      return a != b && !std::isnan(a) && !std::isnan(b);
    case CompOp::kLt:
      return a < b;
    case CompOp::kLe:
      return a <= b;
    case CompOp::kGt:
      return a > b;
    case CompOp::kGe:
      return a >= b;
  }
  return false;
}

namespace {
template <typename T>
bool CompareOrdered(const T& a, CompOp op, const T& b) {
  switch (op) {
    case CompOp::kEq:
      return a == b;
    case CompOp::kNe:
      return a != b;
    case CompOp::kLt:
      return a < b;
    case CompOp::kLe:
      return a <= b;
    case CompOp::kGt:
      return a > b;
    case CompOp::kGe:
      return a >= b;
  }
  return false;
}
}  // namespace

bool CompareAtomic(const Value& lhs, CompOp op, const Value& rhs) {
  // Ordering comparisons are always numeric, as in XPath 1.0.
  if (op != CompOp::kEq && op != CompOp::kNe) {
    return CompareNumbers(lhs.ToNumber(), op, rhs.ToNumber());
  }
  if (lhs.kind() == ValueKind::kBoolean || rhs.kind() == ValueKind::kBoolean) {
    return CompareOrdered(lhs.EffectiveBooleanValue(), op,
                          rhs.EffectiveBooleanValue());
  }
  if (lhs.kind() == ValueKind::kNumber || rhs.kind() == ValueKind::kNumber) {
    return CompareNumbers(lhs.ToNumber(), op, rhs.ToNumber());
  }
  return CompareOrdered(lhs.ToString(), op, rhs.ToString());
}

double ApplyArith(const Value& lhs, ArithOp op, const Value& rhs) {
  double a = lhs.ToNumber();
  double b = rhs.ToNumber();
  switch (op) {
    case ArithOp::kAdd:
      return a + b;
    case ArithOp::kSub:
      return a - b;
    case ArithOp::kMul:
      return a * b;
    case ArithOp::kDiv:
      return a / b;
    case ArithOp::kIDiv: {
      if (b == 0 || std::isnan(a) || std::isnan(b)) {
        return std::numeric_limits<double>::quiet_NaN();
      }
      return std::trunc(a / b);
    }
    case ArithOp::kMod: {
      if (b == 0 || std::isnan(a) || std::isnan(b)) {
        return std::numeric_limits<double>::quiet_NaN();
      }
      return std::fmod(a, b);
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

}  // namespace xpstream
