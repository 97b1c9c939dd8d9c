// Unit tests for the software forwarding tables (FTN, NHLFE) and the
// label allocator.
#include <gtest/gtest.h>

#include "mpls/tables.hpp"

namespace empls::mpls {
namespace {

TEST(FtnTable, BindLookupUnbind) {
  FtnTable ftn;
  const Nhlfe n{LabelOp::kPush, 55, 2};
  EXPECT_FALSE(ftn.bind(7, n).has_value());
  EXPECT_EQ(ftn.lookup(7), n);
  const auto previous = ftn.bind(7, Nhlfe{LabelOp::kPush, 56, 2});
  ASSERT_TRUE(previous.has_value());
  EXPECT_EQ(previous->out_label, 55u);
  EXPECT_TRUE(ftn.unbind(7));
  EXPECT_EQ(ftn.size(), 0u);
}

TEST(Nhlfe, ToStringIsReadable) {
  EXPECT_EQ((Nhlfe{LabelOp::kSwap, 42, 3}).to_string(),
            "nhlfe{SWAP out_label=42 -> if3}");
  EXPECT_EQ((Nhlfe{LabelOp::kPop, 0, kLocalDeliver}).to_string(),
            "nhlfe{POP -> local}");
}

TEST(LabelAllocator, AllocatesSequentiallyFromBase) {
  LabelAllocator a(100);
  EXPECT_EQ(a.allocate(), 100u);
  EXPECT_EQ(a.allocate(), 101u);
  EXPECT_EQ(a.allocated(), 2u);
  EXPECT_TRUE(a.is_allocated(100));
  EXPECT_FALSE(a.is_allocated(102));
}

TEST(LabelAllocator, DefaultBaseSkipsReservedRange) {
  LabelAllocator a;
  EXPECT_EQ(a.allocate(), kFirstUnreservedLabel);
}

TEST(LabelAllocator, ReserveBlocksAllocate) {
  LabelAllocator a(16);
  EXPECT_TRUE(a.reserve(17));
  EXPECT_EQ(a.allocate(), 16u);
  EXPECT_EQ(a.allocate(), 18u) << "17 was reserved, allocator skips it";
}

TEST(LabelAllocator, ReserveRejectsInUseAndOutOfRange) {
  LabelAllocator a(16);
  a.allocate();  // 16
  EXPECT_FALSE(a.reserve(16)) << "already allocated";
  EXPECT_FALSE(a.reserve(5)) << "reserved label range (0..15)";
  EXPECT_FALSE(a.reserve(kMaxLabel + 1)) << "out of the 20-bit space";
  EXPECT_TRUE(a.reserve(kMaxLabel));
}

TEST(LabelAllocator, ReleaseMakesReservable) {
  LabelAllocator a(16);
  const auto l = a.allocate();
  ASSERT_TRUE(l.has_value());
  a.release(*l);
  EXPECT_FALSE(a.is_allocated(*l));
  EXPECT_TRUE(a.reserve(*l));
}

TEST(LabelAllocator, ExhaustionReturnsNullopt) {
  // Start near the top of the 20-bit space so exhaustion is reachable.
  LabelAllocator a(kMaxLabel - 2);
  EXPECT_TRUE(a.allocate().has_value());
  EXPECT_TRUE(a.allocate().has_value());
  EXPECT_TRUE(a.allocate().has_value());
  EXPECT_FALSE(a.allocate().has_value());
}

TEST(LabelAllocator, DoubleReleaseIsIgnored) {
  LabelAllocator a(16);
  const auto l = a.allocate();
  a.release(*l);
  a.release(*l);
  EXPECT_EQ(a.allocated(), 0u);
}

}  // namespace
}  // namespace empls::mpls
