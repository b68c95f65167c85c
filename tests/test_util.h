#ifndef TELL_TESTS_TEST_UTIL_H_
#define TELL_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "store/fragment.h"

#define ASSERT_OK(expr)                                   \
  do {                                                    \
    ::tell::Status _st = (expr);                          \
    ASSERT_TRUE(_st.ok()) << _st.ToString();              \
  } while (false)

#define EXPECT_OK(expr)                                   \
  do {                                                    \
    ::tell::Status _st = (expr);                          \
    EXPECT_TRUE(_st.ok()) << _st.ToString();              \
  } while (false)

/// Asserts a Result is OK and assigns its value.
#define ASSERT_OK_AND_ASSIGN(lhs, expr)                   \
  ASSERT_OK_AND_ASSIGN_IMPL(                              \
      TELL_ASSIGN_OR_RETURN_CONCAT(_test_tmp_, __LINE__), lhs, expr)

#define ASSERT_OK_AND_ASSIGN_IMPL(tmp, lhs, expr)         \
  auto tmp = (expr);                                      \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();       \
  lhs = std::move(tmp).value()

namespace tell::test {

/// Store-level scan fragment sink over raw cells: collects the (key, value)
/// of every cell whose value equals `match` (empty: every cell) and stops
/// after `limit` matches (0 = unlimited). Ships the matched cells.
class MatchSink : public store::FragmentSink {
 public:
  explicit MatchSink(std::string match, size_t limit = 0)
      : match_(std::move(match)), limit_(limit) {}

  bool Absorb(std::string_view key, std::string_view value) override {
    if (!match_.empty() && value != match_) return true;
    matches_.emplace_back(key, value);
    return limit_ == 0 || matches_.size() < limit_;
  }
  std::string Finish() override {
    std::string shipped;
    for (const auto& [key, value] : matches_) shipped += key + value;
    return shipped;
  }
  uint64_t rows_returned() const override { return matches_.size(); }
  uint64_t baseline_bytes() const override { return 0; }
  Status status() const override { return Status::OK(); }

  const std::vector<std::pair<std::string, std::string>>& matches() const {
    return matches_;
  }

 private:
  const std::string match_;
  const size_t limit_;
  std::vector<std::pair<std::string, std::string>> matches_;
};

}  // namespace tell::test

#endif  // TELL_TESTS_TEST_UTIL_H_
