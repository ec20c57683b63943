#include <gtest/gtest.h>

#include "core/endpoint.hpp"
#include "util/error.hpp"

namespace ps::core {
namespace {

SampleMessage sample_with_sequence(std::uint64_t sequence,
                                   double observed = 200.0) {
  SampleMessage sample;
  sample.sequence = sequence;
  sample.job_name = "seq-job";
  sample.min_settable_cap_watts = 100.0;
  sample.host_observed_watts = {observed};
  sample.host_needed_watts = {observed};
  return sample;
}

/// Offers a sample the caller does not keep, as a receiver that parsed
/// it for this offer alone would.
bool offer(SampleLatch& latch, SampleMessage sample) {
  return latch.offer(sample);
}

TEST(SampleLatchTest, FirstSampleIsAcceptedAndFresh) {
  SampleLatch latch;
  EXPECT_FALSE(latch.latest().has_value());
  EXPECT_FALSE(latch.has_fresh());
  EXPECT_TRUE(offer(latch, sample_with_sequence(0)));
  EXPECT_TRUE(latch.has_fresh());
  EXPECT_EQ(latch.latest()->sequence, 0u);
}

TEST(SampleLatchTest, NewestSequenceWins) {
  SampleLatch latch;
  EXPECT_TRUE(offer(latch, sample_with_sequence(1, 210.0)));
  EXPECT_TRUE(offer(latch, sample_with_sequence(5, 230.0)));
  EXPECT_EQ(latch.latest()->sequence, 5u);
  EXPECT_EQ(latch.latest()->host_observed_watts[0], 230.0);
}

TEST(SampleLatchTest, StaleAndOutOfOrderSamplesAreIgnored) {
  SampleLatch latch;
  EXPECT_TRUE(offer(latch, sample_with_sequence(5, 230.0)));
  static_cast<void>(latch.consume());
  // An older sequence arriving late must neither replace the held sample
  // nor mark it fresh again.
  EXPECT_FALSE(offer(latch, sample_with_sequence(3, 999.0)));
  EXPECT_FALSE(latch.has_fresh());
  EXPECT_EQ(latch.latest()->sequence, 5u);
  EXPECT_EQ(latch.latest()->host_observed_watts[0], 230.0);
}

TEST(SampleLatchTest, DuplicateSequenceIsIdempotent) {
  SampleLatch latch;
  EXPECT_TRUE(offer(latch, sample_with_sequence(7, 220.0)));
  static_cast<void>(latch.consume());
  // A retransmit of the same sequence (e.g. a client that resent after a
  // timeout) changes nothing: same payload kept, no spurious freshness.
  EXPECT_FALSE(offer(latch, sample_with_sequence(7, 555.0)));
  EXPECT_FALSE(latch.has_fresh());
  EXPECT_EQ(latch.latest()->host_observed_watts[0], 220.0);
}

TEST(SampleLatchTest, ConsumeClearsFreshnessButKeepsTheSample) {
  SampleLatch latch;
  EXPECT_TRUE(offer(latch, sample_with_sequence(2)));
  const SampleMessage& consumed = latch.consume();
  EXPECT_EQ(consumed.sequence, 2u);
  EXPECT_FALSE(latch.has_fresh());
  // The latest sample remains queryable for the next allocation round.
  ASSERT_TRUE(latch.latest().has_value());
  EXPECT_EQ(latch.latest()->sequence, 2u);
  // A newer sample re-arms freshness.
  EXPECT_TRUE(offer(latch, sample_with_sequence(3)));
  EXPECT_TRUE(latch.has_fresh());
}

TEST(SampleLatchTest, StaleOfferChangesNeitherSide) {
  SampleLatch latch;
  SampleMessage held = sample_with_sequence(5, 230.0);
  ASSERT_TRUE(latch.offer(held));
  static_cast<void>(latch.consume());
  SampleMessage stale = sample_with_sequence(5, 999.0);
  stale.host_gpu_observed_watts = {1.0};
  const SampleMessage offered = stale;
  EXPECT_FALSE(latch.offer(stale));
  EXPECT_EQ(stale, offered);
  EXPECT_EQ(*latch.latest(), sample_with_sequence(5, 230.0));
  EXPECT_FALSE(latch.has_fresh());
}

TEST(SampleLatchTest, AcceptedOfferHandsBackTheHeldSample) {
  SampleLatch latch;
  // The first offer hands back an empty sample: nothing was held.
  SampleMessage first = sample_with_sequence(1, 210.0);
  ASSERT_TRUE(latch.offer(first));
  EXPECT_EQ(first, SampleMessage{});
  EXPECT_EQ(*latch.latest(), sample_with_sequence(1, 210.0));

  // A newer offer swaps: the latch holds it, the caller holds the old
  // sample, buffers and all, ready to be parsed over.
  SampleMessage second = sample_with_sequence(2, 220.0);
  const double* second_buffer = second.host_observed_watts.data();
  const double* first_buffer = latch.latest()->host_observed_watts.data();
  ASSERT_TRUE(latch.offer(second));
  EXPECT_EQ(second, sample_with_sequence(1, 210.0));
  EXPECT_EQ(second.host_observed_watts.data(), first_buffer);
  EXPECT_EQ(latch.latest()->host_observed_watts.data(), second_buffer);
  EXPECT_EQ(*latch.latest(), sample_with_sequence(2, 220.0));
  EXPECT_TRUE(latch.has_fresh());
}

TEST(SampleLatchTest, ConsumeWithoutSampleThrows) {
  SampleLatch latch;
  EXPECT_THROW(static_cast<void>(latch.consume()), ps::InvalidState);
}

}  // namespace
}  // namespace ps::core
