#ifndef TELL_STORE_WRITE_OP_H_
#define TELL_STORE_WRITE_OP_H_

#include <cstdint>
#include <string>

#include "store/versioned_cell.h"

namespace tell::store {

using TableId = uint32_t;

/// One write, the single write type of the storage stack: the client API
/// (StorageClient::Write, BatchWrite), the routing layer (Cluster::Write)
/// and the storage node (StorageNode::Write) all take it. `conditional`
/// selects LL/SC semantics (expected_stamp must match; kStampAbsent means
/// insert-if-absent); `erase` deletes instead of writing, and its `value`
/// is ignored.
struct WriteOp {
  TableId table = 0;
  std::string key = {};
  std::string value = {};
  uint64_t expected_stamp = kStampAbsent;
  bool conditional = true;
  bool erase = false;
};

}  // namespace tell::store

#endif  // TELL_STORE_WRITE_OP_H_
