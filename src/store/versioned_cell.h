#ifndef TELL_STORE_VERSIONED_CELL_H_
#define TELL_STORE_VERSIONED_CELL_H_

#include <cstdint>
#include <string>

namespace tell::store {

/// Stamp value meaning "the key must not exist" when passed as the expected
/// stamp of a conditional put (insert semantics), and returned as the stamp
/// of a missing cell.
inline constexpr uint64_t kStampAbsent = 0;

/// One stored cell: the value bytes plus a monotonically increasing stamp.
///
/// The stamp is the load-link token for the LL/SC protocol (paper §2.2/§4.1):
/// a Get returns (value, stamp); a conditional write succeeds only if the
/// cell's stamp still equals the stamp the caller read. Because the stamp increments
/// on *every* successful write and is never reused, a cell that was changed
/// and changed back still fails the store-conditional — exactly the
/// ABA-safety property the paper requires of LL/SC (stronger than
/// compare-and-swap on the value).
struct VersionedCell {
  std::string value;
  uint64_t stamp = kStampAbsent;
};

/// A cell together with its key, as returned by range scans.
struct KeyCell {
  std::string key;
  std::string value;
  uint64_t stamp = kStampAbsent;
};

}  // namespace tell::store

#endif  // TELL_STORE_VERSIONED_CELL_H_
