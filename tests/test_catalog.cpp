// Tests for the content catalog, interest profiles and storage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/interest.h"
#include "catalog/storage.h"
#include "util/assert.h"
#include "util/contracts.h"
#include "util/power_law.h"

namespace p2pex {
namespace {

CatalogConfig small_config() {
  CatalogConfig c;
  c.num_categories = 20;
  c.min_objects_per_category = 2;
  c.max_objects_per_category = 10;
  return c;
}

TEST(Catalog, CategorySizesInRange) {
  Rng rng(1);
  const Catalog cat(small_config(), rng);
  EXPECT_EQ(cat.num_categories(), 20u);
  for (std::size_t c = 0; c < cat.num_categories(); ++c) {
    const auto size = cat.category_size(CategoryId{(std::uint32_t)c});
    EXPECT_GE(size, 2u);
    EXPECT_LE(size, 10u);
  }
}

TEST(Catalog, ObjectIdsDenseAndConsistent) {
  Rng rng(2);
  const Catalog cat(small_config(), rng);
  std::size_t total = 0;
  for (std::size_t c = 0; c < cat.num_categories(); ++c) {
    const CategoryId cid{(std::uint32_t)c};
    for (std::size_t r = 0; r < cat.category_size(cid); ++r) {
      const ObjectId o = cat.object_at(cid, r);
      EXPECT_EQ(cat.category_of(o), cid);
      ++total;
    }
  }
  EXPECT_EQ(total, cat.num_objects());
}

TEST(Catalog, UniformObjectSize) {
  Rng rng(3);
  CatalogConfig c = small_config();
  c.object_size = megabytes(20);
  const Catalog cat(c, rng);
  EXPECT_EQ(cat.object_size(ObjectId{0}), 20000000);
}

TEST(Catalog, SamplesWithinCategory) {
  Rng rng(4);
  const Catalog cat(small_config(), rng);
  for (int i = 0; i < 200; ++i) {
    const CategoryId c = cat.sample_category(rng);
    const ObjectId o = cat.sample_object_in(c, rng);
    EXPECT_EQ(cat.category_of(o), c);
  }
}

TEST(Catalog, SkewedSamplingFavorsLowRanks) {
  Rng rng(5);
  CatalogConfig cfg = small_config();
  cfg.num_categories = 50;
  cfg.category_popularity_f = 1.0;
  const Catalog cat(cfg, rng);
  int low = 0;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i)
    if (cat.sample_category(rng).value < 5) ++low;
  // Top 5 of 50 zipf categories carry far more than 10% of the mass.
  EXPECT_GT(static_cast<double>(low) / draws, 0.25);
}

TEST(Catalog, DeterministicGivenSeed) {
  Rng r1(7), r2(7);
  const Catalog a(small_config(), r1);
  const Catalog b(small_config(), r2);
  EXPECT_EQ(a.num_objects(), b.num_objects());
}

/// PowerLawSampler(n, f)'s CDF, rebuilt the way its constructor builds
/// it (the sampler does not expose it).
std::vector<double> sampler_cdf(std::size_t n, double f) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += std::pow(static_cast<double>(i + 1), -f);
    cdf[i] = total;
  }
  for (auto& c : cdf) c /= total;
  cdf.back() = 1.0;
  return cdf;
}

TEST(Catalog, ObjectRankIsTheSamplerCdfLowerBound) {
  // Every category size up to 300, at u = 0, at every CDF entry and one
  // ulp either side of it (within [0, 1], the range of uniform01): the
  // shared rank table must pick exactly the rank a per-size sampler's
  // lower_bound picks, boundaries included. Draws next to each of the
  // 600 guide-bucket boundaries, where a draw's starting rank changes,
  // are checked too.
  constexpr std::size_t kLargest = 300;
  for (const double f : {0.0, 0.2, 0.7, 1.0}) {
    CatalogConfig cfg;
    cfg.num_categories = 1;
    cfg.min_objects_per_category = kLargest;
    cfg.max_objects_per_category = kLargest;
    cfg.object_popularity_f = f;
    Rng rng(21);
    const Catalog cat(cfg, rng);
    const std::vector<double> largest = sampler_cdf(kLargest, f);
    std::size_t checked = 0;
    for (std::size_t n = 1; n <= kLargest; ++n) {
      const std::vector<double> cdf = sampler_cdf(n, f);
      std::vector<double> us{0.0};
      for (const double c : cdf)
        for (const double u : {std::nextafter(c, 0.0), c, std::nextafter(c, 2.0)})
          if (u <= 1.0) us.push_back(u);
      // Bucket b starts at S = b * S[299] / 600, which is u = b / 600 /
      // (S[n-1] / S[299]) for a category of n objects.
      for (std::size_t b = 1; b < 2 * kLargest; ++b) {
        const double edge = static_cast<double>(b) /
                             static_cast<double>(2 * kLargest) / largest[n - 1];
        for (const double u : {std::nextafter(std::nextafter(edge, 0.0), 0.0),
                               std::nextafter(edge, 0.0), edge,
                               std::nextafter(edge, 2.0),
                               std::nextafter(std::nextafter(edge, 2.0), 2.0)})
          if (u < 1.0) us.push_back(u);
      }
      for (const double u : us) {
        const auto want = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        ASSERT_EQ(cat.object_rank(n, u), want)
            << "f " << f << " n " << n << " u " << u;
        ++checked;
      }
    }
    EXPECT_GT(checked, 3 * kLargest * kLargest / 2);
  }
}

TEST(Catalog, SampleObjectMatchesPerCategorySamplers) {
  // 10^5 draws on the default size range, at heavy_churn.scn's 60
  // categories and at million_peer.scn's 10 000: each draw equals a draw
  // on an identically seeded stream from PowerLawSampler(category size,
  // f).
  for (const std::size_t categories : {60u, 10000u}) {
    CatalogConfig cfg;
    cfg.num_categories = categories;
    Rng build(categories);
    const Catalog cat(cfg, build);
    std::map<std::size_t, PowerLawSampler> samplers;
    Rng pick(7);
    Rng a(11);
    Rng b(11);
    for (int i = 0; i < 100000; ++i) {
      const CategoryId c{narrow_u32(pick.index(cat.num_categories()))};
      const std::size_t n = cat.category_size(c);
      const auto it =
          samplers.try_emplace(n, n, cfg.object_popularity_f).first;
      const ObjectId want = cat.object_at(c, it->second.sample(b));
      ASSERT_EQ(cat.sample_object_in(c, a), want)
          << categories << " categories, draw " << i;
    }
  }
}

TEST(Interest, DistinctCategories) {
  Rng rng(8);
  const Catalog cat(small_config(), rng);
  const InterestProfile ip(cat, 8, rng);
  std::set<CategoryId> uniq(ip.categories().begin(), ip.categories().end());
  EXPECT_EQ(uniq.size(), 8u);
}

TEST(Interest, WeightsNormalized) {
  Rng rng(9);
  const Catalog cat(small_config(), rng);
  const InterestProfile ip(cat, 5, rng);
  double total = 0.0;
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_GT(ip.weight(i), 0.0);
    total += ip.weight(i);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Interest, SamplesOnlyOwnCategories) {
  Rng rng(10);
  const Catalog cat(small_config(), rng);
  const InterestProfile ip(cat, 3, rng);
  for (int i = 0; i < 300; ++i)
    EXPECT_TRUE(ip.interested_in(ip.sample_category(rng)));
}

TEST(Interest, RejectsTooManyCategories) {
  Rng rng(11);
  const Catalog cat(small_config(), rng);
  EXPECT_THROW(InterestProfile(cat, 21, rng), AssertionError);
  EXPECT_THROW(InterestProfile(cat, 0, rng), AssertionError);
}

TEST(Storage, AddRemoveContains) {
  Storage s(5);
  EXPECT_TRUE(s.add(ObjectId{1}));
  EXPECT_FALSE(s.add(ObjectId{1}));  // duplicate
  EXPECT_TRUE(s.contains(ObjectId{1}));
  EXPECT_TRUE(s.remove(ObjectId{1}));
  EXPECT_FALSE(s.remove(ObjectId{1}));
  EXPECT_FALSE(s.contains(ObjectId{1}));
}

TEST(Storage, PinBlocksEviction) {
  Storage s(2);
  Rng rng(12);
  s.add(ObjectId{1});
  s.add(ObjectId{2});
  s.add(ObjectId{3});
  s.add(ObjectId{4});
  s.pin(ObjectId{1});
  s.pin(ObjectId{2});
  s.pin(ObjectId{3});
  s.pin(ObjectId{4});
  EXPECT_TRUE(s.evict_over_capacity(rng).empty());  // everything pinned
  s.unpin(ObjectId{3});
  s.unpin(ObjectId{4});
  const auto evicted = s.evict_over_capacity(rng);
  EXPECT_EQ(evicted.size(), 2u);
  EXPECT_TRUE(s.contains(ObjectId{1}));
  EXPECT_TRUE(s.contains(ObjectId{2}));
}

TEST(Storage, EvictsDownToCapacity) {
  Storage s(3);
  Rng rng(13);
  for (std::uint32_t i = 0; i < 10; ++i) s.add(ObjectId{i});
  EXPECT_TRUE(s.over_capacity());
  const auto evicted = s.evict_over_capacity(rng);
  EXPECT_EQ(evicted.size(), 7u);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_FALSE(s.over_capacity());
}

TEST(Storage, PinIsRefcounted) {
  Storage s(1);
  s.add(ObjectId{9});
  s.pin(ObjectId{9});
  s.pin(ObjectId{9});
  s.unpin(ObjectId{9});
  EXPECT_TRUE(s.pinned(ObjectId{9}));
  s.unpin(ObjectId{9});
  EXPECT_FALSE(s.pinned(ObjectId{9}));
}

TEST(Storage, MisusedPinsThrow) {
  Storage s(1);
  s.add(ObjectId{1});
  EXPECT_THROW(s.pin(ObjectId{2}), AssertionError);     // absent
  EXPECT_THROW(s.unpin(ObjectId{1}), AssertionError);   // not pinned
  s.pin(ObjectId{1});
  EXPECT_THROW(s.remove(ObjectId{1}), AssertionError);  // pinned
}

TEST(Storage, ZeroCapacityRejected) {
  EXPECT_THROW(Storage(0), AssertionError);
}

}  // namespace
}  // namespace p2pex
