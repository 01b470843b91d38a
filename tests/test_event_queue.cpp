// sim::EventQueue ordering and lifecycle. The simulator's bitwise
// reproducibility rests on the queue's (time, seq) total order, and the
// batch driver leans on clear() returning the queue to a truly fresh
// state — both are pinned here.

#include <gtest/gtest.h>

#include <vector>

#include "sim/event.hpp"

namespace {

using namespace quora;

TEST(EventQueue, OrdersByTime) {
  sim::EventQueue q;
  q.push(3.0, sim::EventKind::kAccess, 30);
  q.push(1.0, sim::EventKind::kAccess, 10);
  q.push(2.0, sim::EventKind::kAccess, 20);
  EXPECT_EQ(q.pop().index, 10u);
  EXPECT_EQ(q.pop().index, 20u);
  EXPECT_EQ(q.pop().index, 30u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EqualTimesPopInInsertionOrder) {
  // The deterministic tie-break: same timestamp resolves by seq, i.e.
  // FIFO. Interleave distinct times to make sure ties hold under heap
  // restructuring, not just in a trivially sorted run.
  sim::EventQueue q;
  q.push(5.0, sim::EventKind::kSiteFail, 0);
  q.push(5.0, sim::EventKind::kSiteRecover, 1);
  q.push(1.0, sim::EventKind::kAccess, 2);
  q.push(5.0, sim::EventKind::kLinkFail, 3);
  q.push(2.0, sim::EventKind::kAccess, 4);
  q.push(5.0, sim::EventKind::kLinkRecover, 5);

  EXPECT_EQ(q.pop().index, 2u);
  EXPECT_EQ(q.pop().index, 4u);
  // The four t=5 events must come back in push order.
  std::vector<std::uint32_t> tied;
  std::uint64_t prev_seq = 0;
  bool first = true;
  while (!q.empty()) {
    const sim::Event e = q.pop();
    EXPECT_DOUBLE_EQ(e.time, 5.0);
    if (!first) {
      EXPECT_GT(e.seq, prev_seq);
    }
    prev_seq = e.seq;
    first = false;
    tied.push_back(e.index);
  }
  EXPECT_EQ(tied, (std::vector<std::uint32_t>{0, 1, 3, 5}));
}

TEST(EventQueue, ClearReleasesCapacityAndRestartsSeq) {
  sim::EventQueue q;
  for (int i = 0; i < 1000; ++i) {
    q.push(static_cast<double>(i), sim::EventKind::kAccess, 0);
  }
  ASSERT_GE(q.capacity(), 1000u);

  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  // Deterministic memory behaviour: clear() must actually release the
  // backing store, not merely empty it.
  EXPECT_EQ(q.capacity(), 0u);

  // Sequence numbers restart from zero, so a cleared-and-refilled queue
  // breaks ties exactly like a freshly constructed one (Simulator::reset
  // depends on this for exact replay).
  q.push(7.0, sim::EventKind::kAccess, 100);
  q.push(7.0, sim::EventKind::kAccess, 200);
  const sim::Event a = q.pop();
  const sim::Event b = q.pop();
  EXPECT_EQ(a.seq, 0u);
  EXPECT_EQ(a.index, 100u);
  EXPECT_EQ(b.seq, 1u);
  EXPECT_EQ(b.index, 200u);
}

TEST(EventQueue, ReusedAfterClearMatchesFreshQueue) {
  sim::EventQueue used;
  for (int i = 0; i < 64; ++i) {
    used.push(64.0 - i, sim::EventKind::kAccess, static_cast<std::uint32_t>(i));
  }
  while (!used.empty()) used.pop();
  used.clear();

  sim::EventQueue fresh;
  for (int i = 0; i < 64; ++i) {
    const double t = (i * 37) % 64;  // scrambled but identical for both
    used.push(t, sim::EventKind::kAccess, static_cast<std::uint32_t>(i));
    fresh.push(t, sim::EventKind::kAccess, static_cast<std::uint32_t>(i));
  }
  while (!fresh.empty()) {
    ASSERT_FALSE(used.empty());
    const sim::Event eu = used.pop();
    const sim::Event ef = fresh.pop();
    EXPECT_EQ(eu.time, ef.time);
    EXPECT_EQ(eu.seq, ef.seq);
    EXPECT_EQ(eu.index, ef.index);
  }
  EXPECT_TRUE(used.empty());
}

} // namespace
