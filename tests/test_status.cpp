#include "common/status.h"

#include <gtest/gtest.h>

namespace dhnsw {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("cluster 7");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "cluster 7");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: cluster 7");
}

TEST(StatusTest, EveryFactoryProducesItsCode) {
  EXPECT_EQ(Status::InvalidArgument("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Capacity("").code(), StatusCode::kCapacity);
  EXPECT_EQ(Status::Corruption("").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::Unavailable("").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::Internal("").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::IoError("").code(), StatusCode::kIoError);
}

TEST(StatusTest, CodeNamesAreUnique) {
  const StatusCode codes[] = {
      StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
      StatusCode::kOutOfRange, StatusCode::kCapacity, StatusCode::kCorruption,
      StatusCode::kUnavailable, StatusCode::kInternal, StatusCode::kUnimplemented,
      StatusCode::kIoError};
  for (size_t i = 0; i < std::size(codes); ++i) {
    for (size_t j = i + 1; j < std::size(codes); ++j) {
      EXPECT_NE(StatusCodeName(codes[i]), StatusCodeName(codes[j]));
    }
  }
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::Ok(), Status());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.status(), Status::Ok());
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::Corruption("bad bytes"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string(1000, 'x'));
  ASSERT_TRUE(r.ok());
  std::string s = std::move(r).value();
  EXPECT_EQ(s.size(), 1000u);
}

namespace helpers {
Status FailIf(bool fail) {
  if (fail) return Status::Internal("asked to fail");
  return Status::Ok();
}
Status Chain(bool fail) {
  DHNSW_RETURN_IF_ERROR(FailIf(fail));
  return Status::Ok();
}
Result<int> Produce(bool fail) {
  if (fail) return Status::NotFound("no value");
  return 7;
}
Result<int> Consume(bool fail) {
  DHNSW_ASSIGN_OR_RETURN(int v, Produce(fail));
  return v * 2;
}
}  // namespace helpers

TEST(StatusMacrosTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(helpers::Chain(false).ok());
  EXPECT_EQ(helpers::Chain(true).code(), StatusCode::kInternal);
}

TEST(StatusMacrosTest, AssignOrReturnPropagates) {
  Result<int> ok = helpers::Consume(false);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 14);
  Result<int> err = helpers::Consume(true);
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace dhnsw
