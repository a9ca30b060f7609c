// Tests of the benchmark's own logic: the percentile rule, the Zipf
// sampler, workload determinism, and the answer checks.

#include <gtest/gtest.h>

#include <map>

#include "check.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace {

using e2e::Workload;

TEST(PercentileRule, P99NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(e2e::min_samples_for(0.99), 1000u);
  EXPECT_FALSE(e2e::supports_quantile(999, 0.99));
  EXPECT_TRUE(e2e::supports_quantile(1000, 0.99));
  EXPECT_EQ(e2e::samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(e2e::samples_beyond(1500, 0.99), 15u);
  EXPECT_EQ(e2e::min_samples_for(0.5), 20u);
}

TEST(PercentileRule, HighestSupportedQuantile) {
  EXPECT_DOUBLE_EQ(e2e::highest_supported_quantile(10000), 0.999);
  EXPECT_DOUBLE_EQ(e2e::highest_supported_quantile(1000), 0.99);
  EXPECT_DOUBLE_EQ(e2e::highest_supported_quantile(999), 0.95);
  EXPECT_DOUBLE_EQ(e2e::highest_supported_quantile(200), 0.95);
  EXPECT_DOUBLE_EQ(e2e::highest_supported_quantile(100), 0.9);
  EXPECT_DOUBLE_EQ(e2e::highest_supported_quantile(19), 0.0);
}

TEST(PercentileRule, NearestRankQuantile) {
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) values.push_back(1001 - i);  // 1000..1
  EXPECT_DOUBLE_EQ(e2e::quantile(values, 0.5), 500.0);
  EXPECT_DOUBLE_EQ(e2e::quantile(values, 0.99), 990.0);
  EXPECT_DOUBLE_EQ(e2e::quantile(values, 1.0), 1000.0);
  EXPECT_DOUBLE_EQ(e2e::quantile({}, 0.5), 0.0);
}

TEST(CalmSample, KeepsTheFastestHalfOfTheSlices) {
  // Four slices of 2 requests; the second and fourth ran at half speed.
  const std::vector<e2e::Slice> slices{
      {1.0, {0.4, 0.5}}, {2.0, {0.9, 1.0}}, {1.0, {0.5, 0.5}}, {2.0, {1.0, 1.1}}};
  const e2e::CalmSample calm = e2e::calm_sample(slices, 0);
  EXPECT_EQ(calm.slices, 2u);
  EXPECT_DOUBLE_EQ(calm.seconds, 2.0);
  EXPECT_EQ(calm.latency_s, (std::vector<double>{0.4, 0.5, 0.5, 0.5}));
  // An odd count keeps the middle slice too.
  EXPECT_EQ(e2e::calm_sample({slices[0], slices[1], slices[2]}, 0).slices, 2u);
}

TEST(CalmSample, TakesMoreSlicesToReachTheMinimumSampleCount) {
  const std::vector<e2e::Slice> slices{
      {1.0, {0.1, 0.1}}, {3.0, {0.3, 0.3}}, {2.0, {0.2, 0.2}}, {4.0, {0.4, 0.4}}};
  const e2e::CalmSample calm = e2e::calm_sample(slices, 5);
  EXPECT_EQ(calm.slices, 3u);
  EXPECT_DOUBLE_EQ(calm.seconds, 6.0);
  // Fewer samples than asked for in all: every slice is kept.
  EXPECT_EQ(e2e::calm_sample(slices, 100).slices, 4u);
  EXPECT_EQ(e2e::calm_sample({}, 10).slices, 0u);
}

TEST(ZipfSampler, SameSeedSameDraws) {
  const e2e::ZipfSampler sampler(500, e2e::kZipfExponent);
  dsp::Rng a(7), b(7), c(8);
  std::vector<std::size_t> draws_a, draws_b, draws_c;
  for (int i = 0; i < 2000; ++i) {
    draws_a.push_back(sampler.sample(a));
    draws_b.push_back(sampler.sample(b));
    draws_c.push_back(sampler.sample(c));
  }
  EXPECT_EQ(draws_a, draws_b);
  EXPECT_NE(draws_a, draws_c);
}

TEST(ZipfSampler, LowRanksDominate) {
  const e2e::ZipfSampler sampler(500, e2e::kZipfExponent);
  dsp::Rng rng(1);
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 20000; ++i) {
    const std::size_t rank = sampler.sample(rng);
    ASSERT_LT(rank, sampler.ranks());
    ++counts[rank];
  }
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[10]);
  // Rank 0 carries 1 / H(500, 1.1) ~ 19% of the mass.
  EXPECT_NEAR(counts[0] / 20000.0, 0.19, 0.02);
}

TEST(ZipfStream, SameSeedSameRequests) {
  const e2e::ZipfTraffic traffic = e2e::make_zipf_traffic(5);
  e2e::ZipfStream a(traffic, 5, 0), b(traffic, 5, 0), other_client(traffic, 5, 1);
  bool differs = false;
  for (int i = 0; i < 200; ++i) {
    const e2e::ZipfRequest ra = a.next();
    const e2e::ZipfRequest rb = b.next();
    const e2e::ZipfRequest rc = other_client.next();
    EXPECT_EQ(ra.pool_index, rb.pool_index);
    EXPECT_EQ(ra.order, rb.order);
    differs = differs || ra.pool_index != rc.pool_index || ra.order != rc.order;
  }
  EXPECT_TRUE(differs);
}

TEST(ZipfTraffic, PoolCoversEveryGoldenFamilyWithDistinctInstances) {
  const e2e::ZipfTraffic traffic = e2e::make_zipf_traffic(3);
  std::map<std::string, int> families;
  for (const e2e::PoolInstance& entry : traffic.pool) ++families[entry.family];
  EXPECT_EQ(families.size(), 9u);
  EXPECT_EQ(families["gap"], 1);
  EXPECT_GT(traffic.pool.size(), 400u);
  EXPECT_EQ(traffic.rank_to_pool.size(), traffic.pool.size());
}

TEST(WorkloadHash, SameSeedSameHash) {
  for (const Workload w :
       {Workload::kSolveCold, Workload::kSolveWide, Workload::kServeZipf}) {
    EXPECT_EQ(e2e::workload_hash(w, 11), e2e::workload_hash(w, 11));
    EXPECT_NE(e2e::workload_hash(w, 11), e2e::workload_hash(w, 12));
  }
  EXPECT_NE(e2e::workload_hash(Workload::kSolveCold, 11),
            e2e::workload_hash(Workload::kSolveWide, 11));
}

TEST(Workload, StreamRequestsAreDistinctAndReproducible) {
  const std::vector<e2e::Cell> cells = e2e::workload_cells(Workload::kSolveCold);
  ASSERT_EQ(cells.size(), 36u);
  const dsp::Instance a = e2e::stream_request(cells, 9, 40);
  const dsp::Instance b = e2e::stream_request(cells, 9, 40);
  const dsp::Instance next_cycle = e2e::stream_request(cells, 9, 40 + 36);
  const auto same_items = [](const dsp::Instance& x, const dsp::Instance& y) {
    return std::equal(x.items().begin(), x.items().end(), y.items().begin(),
                      y.items().end());
  };
  EXPECT_TRUE(same_items(a, b));
  EXPECT_EQ(a.strip_width(), cells[40 % 36].width);
  EXPECT_EQ(a.size(), cells[40 % 36].n);
  EXPECT_EQ(next_cycle.strip_width(), a.strip_width());
  EXPECT_FALSE(same_items(a, next_cycle));
}

TEST(Workload, ParsesItsNames) {
  EXPECT_EQ(e2e::parse_workload("solve-cold"), Workload::kSolveCold);
  EXPECT_EQ(e2e::parse_workload("serve-zipf"), Workload::kServeZipf);
  EXPECT_FALSE(e2e::parse_workload("nope").has_value());
}

TEST(Check, RejectsAWrongPeakAndAcceptsPermutedTwins) {
  const dsp::Instance instance(4, {{2, 3}, {2, 1}, {1, 2}});
  const dsp::Packing packing{{0, 2, 2}};  // loads 3,3,3,1 -> peak 3
  dsp::Height lower_bound = 0;
  EXPECT_FALSE(e2e::check_answer(instance, packing, 3, lower_bound).has_value());
  EXPECT_EQ(lower_bound, 3);
  EXPECT_TRUE(e2e::check_answer(instance, packing, 4, lower_bound).has_value());
  EXPECT_TRUE(e2e::check_answer(instance, dsp::Packing{{0, 3, 0}}, 3, lower_bound)
                  .has_value());

  const dsp::Instance permuted(4, {{1, 2}, {2, 3}, {2, 1}});
  dsp::service::SolveResponse a, b;
  a.packing = packing;
  a.peak = 3;
  b.packing = dsp::Packing{{2, 0, 2}};
  b.peak = 3;
  EXPECT_TRUE(e2e::same_answer_up_to_order(instance, a, permuted, b));
  b.packing.start[0] = 3;
  EXPECT_FALSE(e2e::same_answer_up_to_order(instance, a, permuted, b));
}

}  // namespace
