#include "catalog/catalog.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"
#include "util/contracts.h"

namespace p2pex {

Catalog::Catalog(const CatalogConfig& config, Rng& rng)
    : config_(config),
      object_size_(config.object_size),
      category_sampler_(config.num_categories, config.category_popularity_f) {
  P2PEX_ASSERT_MSG(config.num_categories >= 1, "need at least one category");
  P2PEX_ASSERT_MSG(config.min_objects_per_category >= 1 &&
                       config.min_objects_per_category <=
                           config.max_objects_per_category,
                   "bad objects-per-category range");
  P2PEX_ASSERT_MSG(config.object_size > 0, "non-positive object size");
  P2PEX_ASSERT_MSG(config.object_popularity_f >= 0.0, "negative skew factor");

  first_object_.reserve(config.num_categories + 1);
  std::uint32_t next = 0;
  std::size_t largest = 0;
  for (std::size_t c = 0; c < config.num_categories; ++c) {
    first_object_.push_back(next);
    const auto count = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(config.min_objects_per_category),
        static_cast<std::int64_t>(config.max_objects_per_category)));
    largest = std::max(largest, count);
    for (std::size_t i = 0; i < count; ++i)
      category_of_.push_back(narrow_u32(c));
    next += narrow_u32(count);
  }
  first_object_.push_back(next);

  rank_sums_.resize(largest);
  double total = 0.0;
  for (std::size_t i = 0; i < largest; ++i) {
    total += std::pow(static_cast<double>(i + 1), -config.object_popularity_f);
    rank_sums_[i] = total;
  }
  const std::size_t buckets = 2 * largest;
  guide_scale_ = static_cast<double>(buckets) / total;
  rank_guide_.resize(buckets + 1);
  std::uint32_t rank = 0;
  for (std::size_t b = 0; b <= buckets; ++b) {
    const double bucket_floor = static_cast<double>(b) / guide_scale_;
    while (rank + 1 < largest && rank_sums_[rank] < bucket_floor) ++rank;
    rank_guide_[b] = rank;
  }
}

std::size_t Catalog::category_size(CategoryId c) const {
  P2PEX_ASSERT(c.value < num_categories());
  return first_object_[c.value + 1] - first_object_[c.value];
}

CategoryId Catalog::category_of(ObjectId o) const {
  P2PEX_ASSERT(o.value < num_objects());
  return CategoryId{category_of_[o.value]};
}

ObjectId Catalog::object_at(CategoryId c, std::size_t rank) const {
  P2PEX_ASSERT(c.value < num_categories());
  P2PEX_ASSERT(rank < category_size(c));
  return ObjectId{first_object_[c.value] + narrow_u32(rank)};
}

CategoryId Catalog::sample_category(Rng& rng) const {
  return CategoryId{narrow_u32(category_sampler_.sample(rng))};
}

ObjectId Catalog::sample_object_in(CategoryId c, Rng& rng) const {
  P2PEX_ASSERT(c.value < num_categories());
  return object_at(c, object_rank(category_size(c), rng.uniform01()));
}

std::size_t Catalog::object_rank(std::size_t n, double u) const {
  P2PEX_INVARIANT(n >= 1 && n <= rank_sums_.size());
  // PowerLawSampler divides each running sum by the category total and
  // then sets its last entry to 1.0; S[n-1] / S[n-1] is exactly 1.0
  // already, so one quotient covers every entry.
  const double total = rank_sums_[n - 1];
  const auto below = [&](std::size_t i) { return rank_sums_[i] / total < u; };
  const auto bucket = std::min(static_cast<std::size_t>(u * total * guide_scale_),
                               rank_guide_.size() - 1);
  // The guide entry is only a start. Walking back while the entry before
  // it still qualifies, then forward while its own does not, returns the
  // lower_bound from any start, so the rank never depends on how the
  // bucket index above rounds.
  std::size_t i = std::min<std::size_t>(rank_guide_[bucket], n - 1);
  while (i > 0 && !below(i - 1)) --i;
  while (below(i)) ++i;
  return i;
}

}  // namespace p2pex
