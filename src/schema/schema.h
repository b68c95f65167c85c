#ifndef TELL_SCHEMA_SCHEMA_H_
#define TELL_SCHEMA_SCHEMA_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace tell::schema {

/// Column data types. Kept deliberately small; everything TPC-C and the SQL
/// layer need.
enum class ColumnType : uint8_t {
  kInt64 = 0,
  kDouble = 1,
  kString = 2,
};

struct Column {
  std::string name;
  ColumnType type;
};

/// Definition of one index over a table: the ordered list of key columns.
/// `unique` enforces at most one rid per key (primary keys are unique).
struct IndexDef {
  std::string name;
  std::vector<uint32_t> key_columns;
  bool unique = false;
};

/// A relational table schema: ordered columns plus the primary key column
/// list. Immutable once built.
class Schema {
 public:
  Schema() = default;
  Schema(std::vector<Column> columns, std::vector<uint32_t> primary_key);

  const std::vector<Column>& columns() const { return columns_; }
  const std::vector<uint32_t>& primary_key() const { return primary_key_; }
  size_t num_columns() const { return columns_.size(); }

  /// Index of a column by name, or NotFound.
  Result<uint32_t> ColumnIndex(std::string_view name) const;

  const Column& column(uint32_t index) const { return columns_[index]; }

 private:
  std::vector<Column> columns_;
  std::vector<uint32_t> primary_key_;
  std::map<std::string, uint32_t, std::less<>> by_name_;
};

/// Convenience builder:
///   Schema s = SchemaBuilder()
///       .AddInt64("id").AddString("name").AddDouble("balance")
///       .SetPrimaryKey({"id"}).Build();
class SchemaBuilder {
 public:
  SchemaBuilder& AddInt64(std::string name);
  SchemaBuilder& AddDouble(std::string name);
  SchemaBuilder& AddString(std::string name);
  SchemaBuilder& SetPrimaryKey(const std::vector<std::string>& names);
  Schema Build();

 private:
  std::vector<Column> columns_;
  std::vector<std::string> primary_key_names_;
};

}  // namespace tell::schema

#endif  // TELL_SCHEMA_SCHEMA_H_
