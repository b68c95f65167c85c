#include "schema/schema.h"

#include "common/logging.h"

namespace tell::schema {

Schema::Schema(std::vector<Column> columns, std::vector<uint32_t> primary_key)
    : columns_(std::move(columns)), primary_key_(std::move(primary_key)) {
  for (uint32_t i = 0; i < columns_.size(); ++i) {
    by_name_.emplace(columns_[i].name, i);
  }
  for (uint32_t pk : primary_key_) {
    TELL_CHECK(pk < columns_.size());
  }
}

Result<uint32_t> Schema::ColumnIndex(std::string_view name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no column '" + std::string(name) + "'");
  }
  return it->second;
}

SchemaBuilder& SchemaBuilder::AddInt64(std::string name) {
  columns_.push_back({std::move(name), ColumnType::kInt64});
  return *this;
}

SchemaBuilder& SchemaBuilder::AddDouble(std::string name) {
  columns_.push_back({std::move(name), ColumnType::kDouble});
  return *this;
}

SchemaBuilder& SchemaBuilder::AddString(std::string name) {
  columns_.push_back({std::move(name), ColumnType::kString});
  return *this;
}

SchemaBuilder& SchemaBuilder::SetPrimaryKey(
    const std::vector<std::string>& names) {
  primary_key_names_ = names;
  return *this;
}

Schema SchemaBuilder::Build() {
  std::vector<uint32_t> pk;
  for (const auto& name : primary_key_names_) {
    bool found = false;
    for (uint32_t i = 0; i < columns_.size(); ++i) {
      if (columns_[i].name == name) {
        pk.push_back(i);
        found = true;
        break;
      }
    }
    TELL_CHECK(found);
  }
  return Schema(std::move(columns_), std::move(pk));
}

}  // namespace tell::schema
