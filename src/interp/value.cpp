#include "interp/value.hpp"

#include <charconv>
#include <sstream>
#include <string_view>

#include "vl/check.hpp"

namespace proteus::interp {

using lang::Type;
using lang::TypeKind;
using lang::TypePtr;

Value Value::seq(ValueList elems) {
  return Value(Seq{std::make_shared<const ValueList>(std::move(elems))});
}

Value Value::tuple(ValueList elems) {
  PROTEUS_REQUIRE(EvalError, !elems.empty(), "tuple value with no components");
  return Value(Tuple{std::make_shared<const ValueList>(std::move(elems))});
}

Value Value::fun(std::string name) {
  return Value(Fun{std::make_shared<const std::string>(std::move(name))});
}

Int Value::as_int() const {
  const Int* v = std::get_if<Int>(&node_);
  PROTEUS_REQUIRE(EvalError, v != nullptr, "value is not an int");
  return *v;
}

Real Value::as_real() const {
  const Real* v = std::get_if<Real>(&node_);
  PROTEUS_REQUIRE(EvalError, v != nullptr, "value is not a real");
  return *v;
}

bool Value::as_bool() const {
  const bool* v = std::get_if<bool>(&node_);
  PROTEUS_REQUIRE(EvalError, v != nullptr, "value is not a bool");
  return *v;
}

const ValueList& Value::as_seq() const {
  const Seq* v = std::get_if<Seq>(&node_);
  PROTEUS_REQUIRE(EvalError, v != nullptr, "value is not a sequence");
  return *v->elems;
}

const ValueList& Value::as_tuple() const {
  const Tuple* v = std::get_if<Tuple>(&node_);
  PROTEUS_REQUIRE(EvalError, v != nullptr, "value is not a tuple");
  return *v->elems;
}

const std::string& Value::fun_name() const {
  const Fun* v = std::get_if<Fun>(&node_);
  PROTEUS_REQUIRE(EvalError, v != nullptr, "value is not a function");
  return *v->name;
}

bool operator==(const Value& a, const Value& b) {
  if (a.node_.index() != b.node_.index()) return false;
  if (a.is_int()) return a.as_int() == b.as_int();
  if (a.is_real()) return a.as_real() == b.as_real();
  if (a.is_bool()) return a.as_bool() == b.as_bool();
  if (a.is_fun()) return a.fun_name() == b.fun_name();
  const ValueList& xs = a.is_seq() ? a.as_seq() : a.as_tuple();
  const ValueList& ys = b.is_seq() ? b.as_seq() : b.as_tuple();
  if (xs.size() != ys.size()) return false;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (!(xs[i] == ys[i])) return false;
  }
  return true;
}

namespace {

/// The shortest text that reads back as the same double, marked as a Real
/// (".0" appended when it would otherwise read as an Int).
void render_real(Real r, std::ostream& os) {
  char buf[32];
  const std::to_chars_result res = std::to_chars(buf, buf + sizeof buf, r);
  const std::string_view text(buf, static_cast<std::size_t>(res.ptr - buf));
  os << text;
  if (text.find_first_of(".ein") == std::string_view::npos) os << ".0";
}

void render(const Value& v, std::ostream& os) {
  if (v.is_int()) {
    os << v.as_int();
  } else if (v.is_real()) {
    render_real(v.as_real(), os);
  } else if (v.is_bool()) {
    os << (v.as_bool() ? "true" : "false");
  } else if (v.is_fun()) {
    os << '<' << v.fun_name() << '>';
  } else if (v.is_seq()) {
    os << '[';
    const ValueList& xs = v.as_seq();
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (i > 0) os << ',';
      render(xs[i], os);
    }
    os << ']';
  } else {
    os << '(';
    const ValueList& xs = v.as_tuple();
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (i > 0) os << ',';
      render(xs[i], os);
    }
    os << ')';
  }
}

}  // namespace

std::string to_text(const Value& v) {
  std::ostringstream os;
  render(v, os);
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  render(v, os);
  return os;
}

namespace {

/// Builds the Array representing `elems` whose common static type is
/// `elem_type`.
seq::Array elements_to_array(const ValueList& elems,
                             const TypePtr& elem_type) {
  switch (elem_type->kind()) {
    case TypeKind::kInt: {
      vl::IntVec v(static_cast<Size>(elems.size()));
      for (std::size_t i = 0; i < elems.size(); ++i) {
        v[static_cast<Size>(i)] = elems[i].as_int();
      }
      return seq::Array::ints(std::move(v));
    }
    case TypeKind::kReal: {
      vl::RealVec v(static_cast<Size>(elems.size()));
      for (std::size_t i = 0; i < elems.size(); ++i) {
        v[static_cast<Size>(i)] = elems[i].as_real();
      }
      return seq::Array::reals(std::move(v));
    }
    case TypeKind::kBool: {
      vl::BoolVec v(static_cast<Size>(elems.size()));
      for (std::size_t i = 0; i < elems.size(); ++i) {
        v[static_cast<Size>(i)] = vl::Bool(elems[i].as_bool() ? 1 : 0);
      }
      return seq::Array::bools(std::move(v));
    }
    case TypeKind::kSeq: {
      vl::IntVec lengths(static_cast<Size>(elems.size()));
      ValueList flat;
      for (std::size_t i = 0; i < elems.size(); ++i) {
        const ValueList& inner = elems[i].as_seq();
        lengths[static_cast<Size>(i)] = static_cast<Int>(inner.size());
        flat.insert(flat.end(), inner.begin(), inner.end());
      }
      return seq::Array::nested(std::move(lengths),
                                elements_to_array(flat, elem_type->elem()));
    }
    case TypeKind::kTuple: {
      const auto& comp_types = elem_type->components();
      std::vector<seq::Array> comps;
      comps.reserve(comp_types.size());
      for (std::size_t c = 0; c < comp_types.size(); ++c) {
        ValueList column;
        column.reserve(elems.size());
        for (const Value& e : elems) {
          const ValueList& tup = e.as_tuple();
          PROTEUS_REQUIRE(EvalError, tup.size() == comp_types.size(),
                          "tuple arity mismatch in conversion");
          column.push_back(tup[c]);
        }
        comps.push_back(elements_to_array(column, comp_types[c]));
      }
      return seq::Array::tuple(std::move(comps));
    }
    case TypeKind::kFun:
      throw EvalError(
          "sequences of function values have no flat representation");
  }
  throw EvalError("corrupt type in conversion");
}

ValueList array_to_elements(const seq::Array& a, const TypePtr& elem_type) {
  ValueList out;
  const Size n = a.length();
  out.reserve(static_cast<std::size_t>(n));
  switch (elem_type->kind()) {
    case TypeKind::kInt: {
      const vl::IntVec& v = a.int_values();
      for (Size i = 0; i < n; ++i) out.push_back(Value::ints(v[i]));
      return out;
    }
    case TypeKind::kReal: {
      const vl::RealVec& v = a.real_values();
      for (Size i = 0; i < n; ++i) out.push_back(Value::reals(v[i]));
      return out;
    }
    case TypeKind::kBool: {
      const vl::BoolVec& v = a.bool_values();
      for (Size i = 0; i < n; ++i) out.push_back(Value::bools(v[i] != 0));
      return out;
    }
    case TypeKind::kSeq: {
      const vl::IntVec& lens = a.lengths();
      ValueList flat = array_to_elements(a.inner(), elem_type->elem());
      std::size_t pos = 0;
      for (Size i = 0; i < n; ++i) {
        ValueList inner(flat.begin() + static_cast<std::ptrdiff_t>(pos),
                        flat.begin() + static_cast<std::ptrdiff_t>(
                                           pos + std::size_t(lens[i])));
        pos += std::size_t(lens[i]);
        out.push_back(Value::seq(std::move(inner)));
      }
      return out;
    }
    case TypeKind::kTuple: {
      const auto& comp_types = elem_type->components();
      const auto& comps = a.components();
      PROTEUS_REQUIRE(EvalError, comps.size() == comp_types.size(),
                      "tuple arity mismatch in conversion");
      std::vector<ValueList> columns;
      for (std::size_t c = 0; c < comps.size(); ++c) {
        columns.push_back(array_to_elements(comps[c], comp_types[c]));
      }
      for (Size i = 0; i < n; ++i) {
        ValueList tup;
        for (auto& col : columns) tup.push_back(col[std::size_t(i)]);
        out.push_back(Value::tuple(std::move(tup)));
      }
      return out;
    }
    case TypeKind::kFun:
      throw EvalError(
          "sequences of function values have no flat representation");
  }
  throw EvalError("corrupt type in conversion");
}

}  // namespace

seq::Array to_array(const Value& v, const TypePtr& type) {
  PROTEUS_REQUIRE(EvalError, type != nullptr && type->is_seq(),
                  "to_array requires a sequence type");
  return elements_to_array(v.as_seq(), type->elem());
}

Value from_array(const seq::Array& a, const TypePtr& type) {
  PROTEUS_REQUIRE(EvalError, type != nullptr && type->is_seq(),
                  "from_array requires a sequence type");
  return Value::seq(array_to_elements(a, type->elem()));
}

}  // namespace proteus::interp
