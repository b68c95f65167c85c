#ifndef TELL_SCHEMA_TUPLE_H_
#define TELL_SCHEMA_TUPLE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "schema/schema.h"

namespace tell::schema {

/// One column value. monostate = SQL NULL.
using Value = std::variant<std::monostate, int64_t, double, std::string>;

bool ValueIsNull(const Value& v);
/// Three-way comparison; NULL sorts first. Numeric types compare across
/// int64/double.
int CompareValues(const Value& a, const Value& b);
std::string ValueToString(const Value& v);

/// One row, positionally matching a Schema. Plain value container.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(size_t num_columns) : values_(num_columns) {}
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}

  size_t size() const { return values_.size(); }
  const Value& at(size_t i) const { return values_[i]; }
  Value& at(size_t i) { return values_[i]; }
  void Set(size_t i, Value v) { values_[i] = std::move(v); }
  const std::vector<Value>& values() const { return values_; }

  int64_t GetInt(size_t i) const { return std::get<int64_t>(values_[i]); }
  double GetDouble(size_t i) const { return std::get<double>(values_[i]); }
  const std::string& GetString(size_t i) const {
    return std::get<std::string>(values_[i]);
  }

  /// Serializes against `schema` (types must match positionally; NULLs
  /// allowed anywhere).
  std::string Serialize(const Schema& schema) const;
  static Result<Tuple> Deserialize(const Schema& schema,
                                   std::string_view data);


 private:
  std::vector<Value> values_;
};

/// Builds the order-preserving index key for `tuple` over the given key
/// columns: fixed-width big-endian for numerics, NUL-terminated for strings
/// (embedded NULs are not supported in key columns — enforced at insert).
Result<std::string> EncodeIndexKey(const Tuple& tuple,
                                   const std::vector<uint32_t>& key_columns);

/// Encodes raw values (for building search keys without a full tuple).
Result<std::string> EncodeIndexKeyValues(const std::vector<Value>& values);

}  // namespace tell::schema

#endif  // TELL_SCHEMA_TUPLE_H_
