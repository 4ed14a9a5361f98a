#include "dist/fault.h"

#include <gtest/gtest.h>

#include "support/check.h"

namespace apa::dist {
namespace {

TEST(DistFaultPolicy, EmptySpecArmsNothing) {
  const DistFaultPolicy policy = DistFaultPolicy::parse("");
  EXPECT_FALSE(policy.any());
}

TEST(DistFaultPolicy, ParsesEveryClause) {
  const DistFaultPolicy policy = DistFaultPolicy::parse(
      "kill@1:7,corrupt@0:3,corrupt-shard@2:5,delay@3:9:250");
  EXPECT_TRUE(policy.any());
  EXPECT_TRUE(policy.kills(1, 7));
  EXPECT_FALSE(policy.kills(1, 8));
  EXPECT_FALSE(policy.kills(0, 7));
  EXPECT_TRUE(policy.corrupts_grad(0, 3));
  EXPECT_TRUE(policy.corrupts_shard(2, 5));
  EXPECT_TRUE(policy.delays(3, 9));
  EXPECT_DOUBLE_EQ(policy.delay_s, 0.25);
}

TEST(DistFaultPolicy, WhitespaceTolerated) {
  const DistFaultPolicy policy =
      DistFaultPolicy::parse(" kill@0:1 , corrupt@1:3 ");
  EXPECT_TRUE(policy.kills(0, 1));
  EXPECT_TRUE(policy.corrupts_grad(1, 3));
}

TEST(DistFaultPolicy, MalformedSpecsRejected) {
  EXPECT_THROW(DistFaultPolicy::parse("kill@"), ApaError);
  EXPECT_THROW(DistFaultPolicy::parse("kill@1"), ApaError);
  EXPECT_THROW(DistFaultPolicy::parse("kill@x:2"), ApaError);
  EXPECT_THROW(DistFaultPolicy::parse("explode@0:1"), ApaError);
  EXPECT_THROW(DistFaultPolicy::parse("delay@0:1"), ApaError);
  // Message faults: there is no message to drop or corrupt in shared memory.
  EXPECT_THROW(DistFaultPolicy::parse("drop@0:2"), ApaError);
  EXPECT_THROW(DistFaultPolicy::parse("corrupt-msg@1:4"), ApaError);
}

TEST(DistFaultPolicy, TrailingCommaIgnored) {
  EXPECT_TRUE(DistFaultPolicy::parse("kill@0:1,").kills(0, 1));
}

TEST(DistFaultPolicy, MalformedSpecReportsPrecondition) {
  try {
    DistFaultPolicy::parse("bogus@0:0");
    FAIL() << "expected ApaError";
  } catch (const ApaError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kPrecondition);
  }
}

}  // namespace
}  // namespace apa::dist
