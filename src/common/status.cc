#include "common/status.h"

namespace tell {

std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kConditionFailed:
      return "ConditionFailed";
    case StatusCode::kAborted:
      return "Aborted";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kCapacityExceeded:
      return "CapacityExceeded";
    case StatusCode::kInternalError:
      return "InternalError";
    case StatusCode::kNotSupported:
      return "NotSupported";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeName(code_));
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace tell
