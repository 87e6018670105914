// Content catalog: the universe of categories and objects, with the
// paper's rank-based popularity model (Section IV-A).
//
// Objects are organized in categories. Category popularity over ranks and
// object popularity within a category both follow p(i) ∝ i^-f (f = 0
// uniform, f -> 1 zipf-like; paper default f = 0.2 for both). The number
// of objects per category is uniform(1, 300) by default; all objects have
// the same size (paper: 20 MB).
#pragma once

#include <cstddef>
#include <vector>

#include "util/power_law.h"
#include "util/rng.h"
#include "util/types.h"

namespace p2pex {

/// Configuration for building a Catalog.
struct CatalogConfig {
  std::size_t num_categories = 300;
  std::size_t min_objects_per_category = 1;
  std::size_t max_objects_per_category = 300;
  double category_popularity_f = 0.2;  ///< skew of category ranks
  double object_popularity_f = 0.2;    ///< skew of object ranks in a category
  Bytes object_size = megabytes(20);   ///< identical for all objects

  friend bool operator==(const CatalogConfig&, const CatalogConfig&) = default;
};

/// Immutable universe of categories and objects.
///
/// ObjectIds are dense 0-based indices grouped contiguously by category,
/// so category membership is a range query.
class Catalog {
 public:
  /// Builds the catalog; object counts per category are drawn from `rng`.
  Catalog(const CatalogConfig& config, Rng& rng);

  [[nodiscard]] std::size_t num_categories() const { return first_object_.size() - 1; }
  [[nodiscard]] std::size_t num_objects() const { return first_object_.back(); }

  /// Number of objects in a category.
  [[nodiscard]] std::size_t category_size(CategoryId c) const;

  /// Category of an object.
  [[nodiscard]] CategoryId category_of(ObjectId o) const;

  /// i-th object (by popularity rank, 0 = most popular) of category c.
  [[nodiscard]] ObjectId object_at(CategoryId c, std::size_t rank) const;

  /// Size in bytes of an object (uniform across the catalog).
  [[nodiscard]] Bytes object_size(ObjectId) const { return object_size_; }

  /// Samples a category by global category popularity.
  [[nodiscard]] CategoryId sample_category(Rng& rng) const;

  /// Samples an object within category c by object popularity.
  [[nodiscard]] ObjectId sample_object_in(CategoryId c, Rng& rng) const;

  /// The rank that a uniform draw `u` in [0, 1] picks in a category of
  /// `n` objects: the first i with S[i] / S[n-1] >= u, where S is the
  /// running sum of (j+1)^-f. Those quotients are PowerLawSampler(n, f)'s
  /// CDF entries bit for bit, so the rank is the one its sample() returns
  /// for the same u. Requires 1 <= n <= the largest category size.
  [[nodiscard]] std::size_t object_rank(std::size_t n, double u) const;

  [[nodiscard]] const CatalogConfig& config() const { return config_; }

 private:
  CatalogConfig config_;
  Bytes object_size_;
  /// first_object_[c] = id of first object of category c;
  /// first_object_[num_categories] = total object count.
  std::vector<std::uint32_t> first_object_;
  /// category_of_[o] = category of object o.
  std::vector<std::uint32_t> category_of_;
  PowerLawSampler category_sampler_;
  /// Object ranks of every category share one table: rank_sums_[i] =
  /// S[i] = sum over j <= i of (j+1)^-f, up to the largest category and
  /// added in PowerLawSampler's order, so S[i] is the same double for
  /// every category size.
  std::vector<double> rank_sums_;
  /// Guide table over rank_sums_: rank_guide_[b] is the first i with
  /// S[i] >= b / guide_scale_, two buckets per rank. A draw starts at
  /// its bucket's entry, so it compares a few CDF entries instead of
  /// binary-searching a per-category CDF.
  std::vector<std::uint32_t> rank_guide_;
  double guide_scale_ = 0.0;  ///< guide buckets per unit of S
};

}  // namespace p2pex
