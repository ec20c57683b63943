#include "rm/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace ps::rm {
namespace {

JobRequest job(const std::string& name, std::size_t nodes) {
  JobRequest request;
  request.name = name;
  request.node_count = nodes;
  return request;
}

TEST(SchedulerTest, StartsJobsInFifoOrder) {
  Scheduler scheduler(10);
  scheduler.submit(job("a", 4));
  scheduler.submit(job("b", 4));
  scheduler.submit(job("c", 4));  // does not fit with a and b
  const std::vector<NodeGrant> grants = scheduler.start_pending();
  ASSERT_EQ(grants.size(), 2u);
  EXPECT_EQ(grants[0].job_name, "a");
  EXPECT_EQ(grants[1].job_name, "b");
  EXPECT_EQ(scheduler.queued_count(), 1u);
  EXPECT_EQ(scheduler.running_count(), 2u);
  EXPECT_EQ(scheduler.free_node_count(), 2u);
}

TEST(SchedulerTest, GrantsDistinctNodes) {
  Scheduler scheduler(9);
  scheduler.submit(job("a", 4));
  scheduler.submit(job("b", 5));
  const std::vector<NodeGrant> grants = scheduler.start_pending();
  std::set<std::size_t> seen;
  for (const auto& grant : grants) {
    for (std::size_t node : grant.node_indices) {
      EXPECT_TRUE(seen.insert(node).second) << "node granted twice";
      EXPECT_LT(node, 9u);
    }
  }
  EXPECT_EQ(seen.size(), 9u);
}

TEST(SchedulerTest, CompleteReleasesNodes) {
  Scheduler scheduler(6);
  scheduler.submit(job("a", 6));
  scheduler.submit(job("b", 3));
  static_cast<void>(scheduler.start_pending());
  EXPECT_EQ(scheduler.running_count(), 1u);
  scheduler.complete("a");
  EXPECT_EQ(scheduler.free_node_count(), 6u);
  const std::vector<NodeGrant> grants = scheduler.start_pending();
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].job_name, "b");
}

TEST(SchedulerTest, HeadOfQueueBlocksLaterJobs) {
  Scheduler scheduler(4);
  scheduler.submit(job("big", 4));
  scheduler.submit(job("small", 1));
  static_cast<void>(scheduler.start_pending());
  // "big" is running; "small" fits nowhere.
  scheduler.submit(job("big2", 3));
  const std::vector<NodeGrant> grants = scheduler.start_pending();
  // No backfill: big2 blocks behind small... actually small starts? No:
  // small requires 1 node but 0 are free while big runs.
  EXPECT_TRUE(grants.empty());
  EXPECT_EQ(scheduler.queued_count(), 2u);
}

TEST(SchedulerTest, NodesOfRunningJobAccessible) {
  Scheduler scheduler(5);
  scheduler.submit(job("a", 3));
  static_cast<void>(scheduler.start_pending());
  EXPECT_TRUE(scheduler.is_running("a"));
  EXPECT_EQ(scheduler.nodes_of("a").size(), 3u);
  EXPECT_THROW(static_cast<void>(scheduler.nodes_of("b")), ps::NotFound);
}

TEST(SchedulerTest, CompleteUnknownJobThrows) {
  Scheduler scheduler(2);
  EXPECT_THROW(scheduler.complete("ghost"), ps::NotFound);
}

TEST(SchedulerTest, OversizedJobRejectedAtSubmit) {
  Scheduler scheduler(4);
  EXPECT_THROW(scheduler.submit(job("too-big", 5)), ps::InvalidArgument);
}

TEST(SchedulerTest, DuplicateNamesRejected) {
  Scheduler scheduler(8);
  scheduler.submit(job("a", 2));
  EXPECT_THROW(scheduler.submit(job("a", 2)), ps::InvalidArgument);
  static_cast<void>(scheduler.start_pending());
  EXPECT_THROW(scheduler.submit(job("a", 2)), ps::InvalidArgument);
}

TEST(SchedulerTest, ExplicitPoolIndicesUsed) {
  Scheduler scheduler(std::vector<std::size_t>{10, 20, 30});
  scheduler.submit(job("a", 3));
  const std::vector<NodeGrant> grants = scheduler.start_pending();
  ASSERT_EQ(grants.size(), 1u);
  std::set<std::size_t> nodes(grants[0].node_indices.begin(),
                              grants[0].node_indices.end());
  EXPECT_EQ(nodes, (std::set<std::size_t>{10, 20, 30}));
}

TEST(SchedulerTest, DuplicatePoolIndicesRejected) {
  EXPECT_THROW(Scheduler(std::vector<std::size_t>{1, 1, 2}),
               ps::InvalidArgument);
  EXPECT_THROW(Scheduler(std::vector<std::size_t>{}), ps::InvalidArgument);
}

TEST(SchedulerTest, InvalidJobRequestRejected) {
  Scheduler scheduler(4);
  EXPECT_THROW(scheduler.submit(job("", 2)), ps::InvalidArgument);
  EXPECT_THROW(scheduler.submit(job("a", 0)), ps::InvalidArgument);
}

TEST(SchedulerTest, HeadScanPicksTheDrainOrdersFront) {
  const sim::SlaClass classes[] = {sim::SlaClass::kLatencyCritical,
                                   sim::SlaClass::kStandard,
                                   sim::SlaClass::kBestEffort};
  util::Rng rng(0x5c4ed);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(trial);
    Scheduler scheduler(8);
    scheduler.submit(job("blocker", 8));
    ASSERT_EQ(scheduler.start_pending().size(), 1u);
    // The queue, by position: the submissions in order.
    std::vector<std::string> queue;
    const std::size_t queued = 1 + rng.uniform_index(12);
    for (std::size_t i = 0; i < queued; ++i) {
      JobRequest request = job("j" + std::to_string(i),
                               1 + rng.uniform_index(8));
      request.sla_class = classes[rng.uniform_index(3)];
      scheduler.submit(request);
      queue.push_back(request.name);
    }
    scheduler.complete("blocker");
    // Drain in rounds: the jobs each round starts are a prefix of the
    // drain order, and the head is its front at every step.
    while (!queue.empty()) {
      const std::vector<std::size_t> order = scheduler.drain_order();
      ASSERT_EQ(order.size(), queue.size());
      ASSERT_NE(scheduler.queued_head(), nullptr);
      EXPECT_EQ(scheduler.queued_head()->name, queue[order.front()]);
      const std::vector<NodeGrant> grants = scheduler.start_pending();
      ASSERT_FALSE(grants.empty());
      for (std::size_t k = 0; k < grants.size(); ++k) {
        EXPECT_EQ(grants[k].job_name, queue[order[k]]);
      }
      for (const NodeGrant& grant : grants) {
        queue.erase(std::find(queue.begin(), queue.end(), grant.job_name));
        scheduler.complete(grant.job_name);
      }
    }
    EXPECT_EQ(scheduler.queued_head(), nullptr);
  }
}

}  // namespace
}  // namespace ps::rm
