#include "schema/tuple.h"

#include <cmath>

#include "common/serde.h"

namespace tell::schema {

namespace {
// Value tags in the tuple wire format.
constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagInt64 = 1;
constexpr uint8_t kTagDouble = 2;
constexpr uint8_t kTagString = 3;
}  // namespace

bool ValueIsNull(const Value& v) {
  return std::holds_alternative<std::monostate>(v);
}

int CompareValues(const Value& a, const Value& b) {
  bool a_null = ValueIsNull(a);
  bool b_null = ValueIsNull(b);
  if (a_null || b_null) {
    if (a_null && b_null) return 0;
    return a_null ? -1 : 1;
  }
  // Numeric cross-type comparison.
  auto numeric = [](const Value& v, double* out) {
    if (const int64_t* i = std::get_if<int64_t>(&v)) {
      *out = static_cast<double>(*i);
      return true;
    }
    if (const double* d = std::get_if<double>(&v)) {
      *out = *d;
      return true;
    }
    return false;
  };
  double da, db;
  if (numeric(a, &da) && numeric(b, &db)) {
    if (da < db) return -1;
    if (da > db) return 1;
    return 0;
  }
  const std::string* sa = std::get_if<std::string>(&a);
  const std::string* sb = std::get_if<std::string>(&b);
  if (sa != nullptr && sb != nullptr) {
    int c = sa->compare(*sb);
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  // Mixed string/number: order by type tag for a stable total order.
  return a.index() < b.index() ? -1 : 1;
}

std::string ValueToString(const Value& v) {
  if (ValueIsNull(v)) return "NULL";
  if (const int64_t* i = std::get_if<int64_t>(&v)) return std::to_string(*i);
  if (const double* d = std::get_if<double>(&v)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", *d);
    return buf;
  }
  return std::get<std::string>(v);
}

std::string Tuple::Serialize(const Schema& schema) const {
  (void)schema;  // format is self-describing; schema validates on read
  size_t bytes = 4 + 9 * values_.size();
  for (const Value& v : values_) {
    if (const std::string* s = std::get_if<std::string>(&v)) {
      bytes += 4 + s->size();
    }
  }
  BufferWriter writer;
  writer.Reserve(bytes);
  writer.PutU32(static_cast<uint32_t>(values_.size()));
  for (const Value& v : values_) {
    if (ValueIsNull(v)) {
      writer.PutU8(kTagNull);
    } else if (const int64_t* i = std::get_if<int64_t>(&v)) {
      writer.PutU8(kTagInt64);
      writer.PutI64(*i);
    } else if (const double* d = std::get_if<double>(&v)) {
      writer.PutU8(kTagDouble);
      writer.PutDouble(*d);
    } else {
      writer.PutU8(kTagString);
      writer.PutString(std::get<std::string>(v));
    }
  }
  return writer.Release();
}

Result<Tuple> Tuple::Deserialize(const Schema& schema, std::string_view data) {
  BufferReader reader(data);
  TELL_ASSIGN_OR_RETURN(uint32_t count, reader.GetU32());
  if (count != schema.num_columns()) {
    return Status::Corruption("tuple column count mismatch");
  }
  Tuple tuple(count);
  for (uint32_t i = 0; i < count; ++i) {
    TELL_ASSIGN_OR_RETURN(uint8_t tag, reader.GetU8());
    switch (tag) {
      case kTagNull:
        tuple.Set(i, std::monostate{});
        break;
      case kTagInt64: {
        TELL_ASSIGN_OR_RETURN(int64_t v, reader.GetI64());
        tuple.Set(i, v);
        break;
      }
      case kTagDouble: {
        TELL_ASSIGN_OR_RETURN(double v, reader.GetDouble());
        tuple.Set(i, v);
        break;
      }
      case kTagString: {
        TELL_ASSIGN_OR_RETURN(std::string_view v, reader.GetString());
        tuple.Set(i, std::string(v));
        break;
      }
      default:
        return Status::Corruption("unknown value tag");
    }
  }
  return tuple;
}

namespace {

Status AppendKeyValue(const Value& v, std::string* out) {
  if (ValueIsNull(v)) {
    // NULLs are indexable (they sort before every non-NULL value); primary
    // keys reject NULLs separately at insert time.
    out->push_back('\x00');
    return Status::OK();
  }
  if (const int64_t* i = std::get_if<int64_t>(&v)) {
    out->push_back('\x01');  // type prefix keeps cross-type keys ordered
    out->append(EncodeOrderedI64(*i));
    return Status::OK();
  }
  if (const double* d = std::get_if<double>(&v)) {
    // Order-preserving double encoding: flip sign bit for positives, all
    // bits for negatives.
    uint64_t bits;
    std::memcpy(&bits, d, sizeof(bits));
    bits = (bits & (uint64_t{1} << 63)) ? ~bits : (bits | (uint64_t{1} << 63));
    out->push_back('\x02');
    out->append(EncodeOrderedU64(bits));
    return Status::OK();
  }
  const std::string& s = std::get<std::string>(v);
  if (s.find('\0') != std::string::npos) {
    return Status::InvalidArgument("NUL byte not allowed in key string");
  }
  out->push_back('\x03');
  out->append(s);
  out->push_back('\0');
  return Status::OK();
}

}  // namespace

Result<std::string> EncodeIndexKey(const Tuple& tuple,
                                   const std::vector<uint32_t>& key_columns) {
  std::string key;
  key.reserve(9 * key_columns.size() + 16);
  for (uint32_t column : key_columns) {
    if (column >= tuple.size()) {
      return Status::InvalidArgument("key column out of range");
    }
    TELL_RETURN_NOT_OK(AppendKeyValue(tuple.at(column), &key));
  }
  return key;
}

Result<std::string> EncodeIndexKeyValues(const std::vector<Value>& values) {
  std::string key;
  for (const Value& v : values) {
    TELL_RETURN_NOT_OK(AppendKeyValue(v, &key));
  }
  return key;
}

}  // namespace tell::schema
