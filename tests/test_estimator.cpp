// Tests for src/estimator: the regression models (CART tree, random forest,
// ridge polynomial, 1-NN) and the caching RuntimeEstimator facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "common/thread_pool.h"
#include "estimator/regression.h"
#include "estimator/runtime_estimator.h"
#include "profiler/profiler.h"

namespace vidur {
namespace {

Dataset make_1d(const std::vector<std::pair<double, double>>& xy) {
  Dataset d;
  for (const auto& [x, y] : xy) d.add({x}, y);
  return d;
}

// ------------------------------------------------------------------ tree

TEST(DecisionTree, FitsTrainingDataExactly) {
  // With min_samples_leaf = 1 and distinct x, a deep tree memorizes.
  const Dataset d = make_1d({{1, 10}, {2, 20}, {3, 15}, {4, 40}, {5, 5}});
  DecisionTree tree;
  tree.fit(d);
  for (std::size_t i = 0; i < d.size(); ++i)
    EXPECT_DOUBLE_EQ(tree.predict({d.x[i]}), d.y[i]);
}

TEST(DecisionTree, PredictsStepFunction) {
  Dataset d;
  for (double x = 0; x < 100; ++x) d.add({x}, x < 50 ? 1.0 : 2.0);
  DecisionTree tree;
  tree.fit(d);
  EXPECT_DOUBLE_EQ(tree.predict({10.0}), 1.0);
  EXPECT_DOUBLE_EQ(tree.predict({90.0}), 2.0);
  // A step function needs exactly one split.
  EXPECT_EQ(tree.num_nodes(), 3u);
}

TEST(DecisionTree, RespectsMaxDepth) {
  Dataset d;
  for (double x = 0; x < 64; ++x) d.add({x}, x);
  DecisionTree shallow(DecisionTree::Options{.max_depth = 2,
                                             .min_samples_leaf = 1});
  shallow.fit(d);
  EXPECT_LE(shallow.num_nodes(), 7u);  // depth-2 binary tree
}

TEST(DecisionTree, RespectsMinSamplesLeaf) {
  Dataset d;
  for (double x = 0; x < 20; ++x) d.add({x}, x);
  DecisionTree tree(DecisionTree::Options{.max_depth = 20,
                                          .min_samples_leaf = 5});
  tree.fit(d);
  // Leaves average >= 5 samples -> prediction is a coarse staircase.
  EXPECT_NEAR(tree.predict({0.0}), 2.0, 2.01);
}

TEST(DecisionTree, HandlesConstantTarget) {
  const Dataset d = make_1d({{1, 7}, {2, 7}, {3, 7}});
  DecisionTree tree;
  tree.fit(d);
  EXPECT_DOUBLE_EQ(tree.predict({2.5}), 7.0);
  EXPECT_EQ(tree.num_nodes(), 1u);  // pure leaf, no splits
}

TEST(DecisionTree, TwoFeatureSplit) {
  Dataset d;
  for (double x = 0; x < 10; ++x)
    for (double y = 0; y < 10; ++y) d.add({x, y}, y >= 5 ? 3.0 : 1.0);
  DecisionTree tree;
  tree.fit(d);
  EXPECT_DOUBLE_EQ(tree.predict({0.0, 9.0}), 3.0);
  EXPECT_DOUBLE_EQ(tree.predict({9.0, 0.0}), 1.0);
}

TEST(DecisionTree, ErrorsOnMisuse) {
  DecisionTree tree;
  EXPECT_THROW(tree.predict({1.0}), Error);  // predict before fit
  Dataset empty;
  EXPECT_THROW(tree.fit(empty), Error);
  const Dataset d = make_1d({{1, 1}});
  tree.fit(d);
  EXPECT_THROW(tree.predict({1.0, 2.0}), Error);  // wrong width
}

// ---------------------------------------------------------------- forest

TEST(RandomForest, ApproximatesSmoothFunction) {
  Dataset d;
  for (double x = 0; x <= 200; x += 2) d.add({x}, 5.0 + 3.0 * x);
  RandomForest forest;
  forest.fit(d);
  // Interior points interpolate within a few percent (edges are coarser
  // because bootstrapped trees cannot extrapolate past their split range).
  for (double x = 25; x < 180; x += 17) {
    const double truth = 5.0 + 3.0 * x;
    EXPECT_NEAR(forest.predict({x}), truth, truth * 0.07) << x;
  }
}

TEST(RandomForest, CapturesStaircaseUnlikePolynomial) {
  // A quantization-style staircase: y jumps at multiples of 32.
  Dataset d;
  for (double x = 1; x <= 256; ++x)
    d.add({x}, std::ceil(x / 32.0));
  RandomForest forest;
  forest.fit(d);
  RidgePolyRegression poly;
  poly.fit(d);
  const double rf_mape = mean_absolute_percentage_error(forest, d);
  const double poly_mape = mean_absolute_percentage_error(poly, d);
  EXPECT_LT(rf_mape, 0.03);
  EXPECT_GT(poly_mape, rf_mape * 2);
}

TEST(RandomForest, DeterministicForSeed) {
  Dataset d;
  for (double x = 0; x < 50; ++x) d.add({x}, x * x);
  RandomForest a(RandomForest::Options{.num_trees = 8, .tree = {}, .seed = 5});
  RandomForest b(RandomForest::Options{.num_trees = 8, .tree = {}, .seed = 5});
  a.fit(d);
  b.fit(d);
  for (double x = 0.5; x < 50; x += 3.3)
    EXPECT_DOUBLE_EQ(a.predict({x}), b.predict({x}));
}

TEST(RandomForest, PredictBeforeFitThrows) {
  RandomForest forest;
  EXPECT_THROW(forest.predict({1.0}), Error);
}

// ------------------------------------------------------ forest step table

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The bagged forest written out: bootstrap rows drawn as RandomForest::fit
/// draws them, one CART tree per draw, leaf values summed in tree order from
/// 0.0 and divided by the tree count.
class BaggedTrees {
 public:
  BaggedTrees(const Dataset& d, const RandomForest::Options& o) {
    Rng rng(o.seed);
    std::vector<std::size_t> rows(d.size());
    for (int t = 0; t < o.num_trees; ++t) {
      for (auto& r : rows)
        r = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(d.size()) - 1));
      trees_.emplace_back(o.tree);
      trees_.back().fit_subset(d, rows);
    }
  }

  double predict(const std::vector<double>& x) const {
    double sum = 0.0;
    for (const DecisionTree& tree : trees_) sum += tree.predict(x);
    return sum / static_cast<double>(trees_.size());
  }

 private:
  std::vector<DecisionTree> trees_;
};

/// Random rows over a few levels per feature (heavy ties, midpoints that
/// round), a fourth of them repeated verbatim, with targets drawn from
/// `target_levels` values (1: a constant target, so single-leaf trees).
Dataset tied_dataset(std::uint64_t seed, int num_features, int levels,
                     int target_levels, std::size_t n) {
  Rng rng(seed);
  Dataset d;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x;
    for (int f = 0; f < num_features; ++f)
      x.push_back(0.1 * (f + 1) *
                  static_cast<double>(rng.uniform_int(0, levels - 1)));
    d.add(x, 1e-5 * static_cast<double>(rng.uniform_int(1, target_levels)));
  }
  for (std::size_t i = 0; i < n / 4; ++i)
    d.add(std::vector<double>(d.row(i), d.row(i) + num_features), d.y[i]);
  return d;
}

/// Probe values along feature `f`: every midpoint a tree could split at
/// (0.5 * (a + b) over each pair of distinct training values, the tree's own
/// arithmetic), the training values, one ULP either side of each, values
/// beyond both ends, +-inf and NaN.
std::vector<double> probes_along(const Dataset& d, int f) {
  std::vector<double> values;
  for (std::size_t i = 0; i < d.size(); ++i) values.push_back(d.row(i)[f]);
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> out = {values.front() - 1.0, values.back() + 1.0,
                             kInf, -kInf,
                             std::numeric_limits<double>::quiet_NaN()};
  auto add = [&](double v) {
    out.push_back(v);
    out.push_back(std::nextafter(v, -kInf));
    out.push_back(std::nextafter(v, kInf));
  };
  for (std::size_t a = 0; a < values.size(); ++a) {
    add(values[a]);
    for (std::size_t b = a + 1; b < values.size(); ++b)
      add(0.5 * (values[a] + values[b]));
  }
  return out;
}

/// Every combination of per-feature probes (one or two features).
std::vector<std::vector<double>> probe_grid(const Dataset& d) {
  std::vector<std::vector<double>> out;
  const std::vector<double> p0 = probes_along(d, 0);
  if (d.num_features == 1) {
    for (double x0 : p0) out.push_back({x0});
    return out;
  }
  const std::vector<double> p1 = probes_along(d, 1);
  for (double x0 : p0)
    for (double x1 : p1) out.push_back({x0, x1});
  return out;
}

/// Counts probes where the forest's predict() differs in any bit from the
/// tree walk or from the written-out bagged forest.
std::size_t count_bit_mismatches(
    const RandomForest& forest, const BaggedTrees& reference,
    const std::vector<std::vector<double>>& probes) {
  std::size_t mismatches = 0;
  for (const auto& x : probes) {
    const std::uint64_t got = bits(forest.predict(x));
    if (got != bits(forest.predict_trees(x)) ||
        got != bits(reference.predict(x)))
      ++mismatches;
  }
  return mismatches;
}

TEST(RandomForestStepTable, MatchesTreeWalkBitForBit) {
  // 1-D: 25 levels over 80 rows; 2-D: 10 levels per feature over 150 rows
  // (fewer levels keep the probe grid small).
  for (const int num_features : {1, 2}) {
    const int levels = num_features == 1 ? 25 : 10;
    const std::size_t rows = num_features == 1 ? 80 : 150;
    for (const int target_levels : {1, 3, 1000}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const Dataset d =
            tied_dataset(seed, num_features, levels, target_levels, rows);
        const RandomForest::Options o{.num_trees = 32, .tree = {},
                                      .seed = seed};
        RandomForest forest(o);
        forest.fit(d);
        ASSERT_TRUE(forest.has_step_table());
        EXPECT_EQ(
            count_bit_mismatches(forest, BaggedTrees(d, o), probe_grid(d)),
            0u)
            << num_features << "-D, seed " << seed << ", " << target_levels
            << " target levels";
      }
    }
  }
}

TEST(RandomForestStepTable, OversizedTwoFeatureGridKeepsTheTreeWalk) {
  // Continuous features and targets: every tree splits at its own
  // midpoints, so the grid of all thresholds outgrows the nodes.
  Rng rng(7);
  Dataset d;
  for (int i = 0; i < 400; ++i)
    d.add({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)}, rng.uniform());
  const RandomForest::Options o{.num_trees = 32, .tree = {}, .seed = 3};
  RandomForest forest(o);
  forest.fit(d);
  EXPECT_FALSE(forest.has_step_table());
  std::vector<std::vector<double>> probes;
  for (std::size_t i = 0; i < d.size(); ++i)
    probes.push_back({d.row(i)[0], d.row(i)[1]});
  for (int i = 0; i < 2000; ++i)
    probes.push_back({rng.uniform(-10.0, 110.0), rng.uniform(-10.0, 110.0)});
  EXPECT_EQ(count_bit_mismatches(forest, BaggedTrees(d, o), probes), 0u);
}

TEST(RandomForestStepTable, KeepsMisuseChecks) {
  const Dataset one = tied_dataset(1, 1, 10, 5, 40);
  RandomForest forest;
  forest.fit(one);
  ASSERT_TRUE(forest.has_step_table());
  EXPECT_THROW(forest.predict({}), Error);
  EXPECT_THROW(forest.predict({1.0, 2.0}), Error);
  const Dataset two = tied_dataset(1, 2, 10, 5, 40);
  forest.fit(two);  // refit replaces the table
  ASSERT_TRUE(forest.has_step_table());
  EXPECT_THROW(forest.predict({1.0}), Error);
  EXPECT_EQ(bits(forest.predict({0.3, 0.4})),
            bits(forest.predict_trees({0.3, 0.4})));
  Dataset no_features;
  no_features.add({}, 1.0);
  EXPECT_THROW(forest.fit(no_features), Error);
  EXPECT_FALSE(forest.has_step_table());  // the failed refit drops the table
  EXPECT_THROW(forest.predict({0.3, 0.4}), Error);
}

// ----------------------------------------------------------------- ridge

TEST(RidgePoly, ExactOnQuadratic) {
  Dataset d;
  for (double x = -10; x <= 10; x += 0.5) d.add({x}, 2.0 + 3.0 * x + 0.5 * x * x);
  RidgePolyRegression model;
  model.fit(d);
  for (double x = -9.3; x < 10; x += 2.1) {
    const double truth = 2.0 + 3.0 * x + 0.5 * x * x;
    EXPECT_NEAR(model.predict({x}), truth, std::abs(truth) * 0.01 + 0.01);
  }
}

TEST(RidgePoly, CrossTermsCaptured) {
  Dataset d;
  for (double x = 0; x <= 8; ++x)
    for (double y = 0; y <= 8; ++y) d.add({x, y}, x * y);
  RidgePolyRegression model;
  model.fit(d);
  EXPECT_NEAR(model.predict({3.0, 5.0}), 15.0, 0.3);
}

TEST(RidgePoly, Degree3) {
  Dataset d;
  for (double x = 0; x <= 20; ++x) d.add({x}, x * x * x);
  RidgePolyRegression model(RidgePolyRegression::Options{.degree = 3,
                                                         .lambda = 1e-9});
  model.fit(d);
  EXPECT_NEAR(model.predict({10.5}), 10.5 * 10.5 * 10.5, 40.0);
}

TEST(RidgePoly, InvalidDegreeThrows) {
  RidgePolyRegression model(RidgePolyRegression::Options{.degree = 4,
                                                         .lambda = 1e-6});
  const Dataset d = make_1d({{1, 1}, {2, 2}});
  EXPECT_THROW(model.fit(d), Error);
}

// ------------------------------------------------------------------- 1nn

TEST(NearestNeighbor, ExactOnTrainingPoints) {
  const Dataset d = make_1d({{1, 10}, {5, 50}, {9, 90}});
  NearestNeighbor nn;
  nn.fit(d);
  EXPECT_DOUBLE_EQ(nn.predict({5.0}), 50.0);
  EXPECT_DOUBLE_EQ(nn.predict({5.9}), 50.0);  // nearest is 5
  EXPECT_DOUBLE_EQ(nn.predict({8.0}), 90.0);
}

TEST(NearestNeighbor, ScaleNormalizationMatters) {
  // Feature 2 has a huge range; without normalization it would dominate.
  Dataset d;
  d.add({1.0, 1000.0}, 1.0);
  d.add({2.0, 1000000.0}, 2.0);
  NearestNeighbor nn;
  nn.fit(d);
  EXPECT_DOUBLE_EQ(nn.predict({1.1, 900000.0}), 2.0);
}

// ----------------------------------------------------------- facade/MAPE

// -------------------------------------------------------------------- mlp

TEST(Mlp, FitsSmoothFunctionWithAmpleData) {
  Dataset d;
  for (double x = 1; x <= 200; ++x) d.add({x}, 5.0 + 3.0 * x);
  MlpRegression mlp;
  mlp.fit(d);
  EXPECT_LT(mean_absolute_percentage_error(mlp, d), 0.10);
}

TEST(Mlp, PredictionsAlwaysPositive) {
  // Log-space regression guarantees positive runtimes even extrapolating.
  Dataset d;
  for (double x = 1; x <= 50; ++x) d.add({x}, 1e-4 * x);
  MlpRegression mlp;
  mlp.fit(d);
  for (double x : {-10.0, 0.0, 25.0, 500.0}) EXPECT_GT(mlp.predict({x}), 0.0);
}

TEST(Mlp, DeterministicForSeed) {
  Dataset d;
  for (double x = 1; x <= 60; ++x) d.add({x}, x * x);
  MlpRegression::Options o;
  o.epochs = 50;
  o.seed = 17;
  MlpRegression a(o), b(o);
  a.fit(d);
  b.fit(d);
  for (double x = 1.5; x < 60; x += 7.7)
    EXPECT_DOUBLE_EQ(a.predict({x}), b.predict({x}));
}

TEST(Mlp, DataHungryComparedToForestOnSmallSamples) {
  // The paper's §4.4 rationale for random forests: on the small profiled
  // grids Vidur collects, an MLP generalizes worse than a forest. Train
  // both on a sparse sample of a tile-quantized runtime curve and evaluate
  // densely.
  auto quantized = [](double x) { return 1e-3 * std::ceil(x / 32.0); };
  Dataset sparse;  // 32 training points: two per quantization bin
  for (double x = 8; x <= 512; x += 16) sparse.add({x}, quantized(x));
  Dataset dense;  // held-out evaluation
  for (double x = 4; x <= 500; x += 7) dense.add({x}, quantized(x));

  RandomForest forest;
  forest.fit(sparse);
  MlpRegression mlp;
  mlp.fit(sparse);
  const double forest_mape = mean_absolute_percentage_error(forest, dense);
  const double mlp_mape = mean_absolute_percentage_error(mlp, dense);
  // The forest snaps to the plateaus it has seen; the MLP smooths through
  // them and needs far more data to recover the staircase.
  EXPECT_LT(forest_mape, mlp_mape * 0.75);
}

TEST(Mlp, LearnsTwoFeatureInteraction) {
  // Runtime-like target: product of two inputs (as GEMM time ~ m*n). The
  // log-space MLP sees log(x1*x2) = log x1 + log x2... but features are fed
  // raw, so the net must learn the interaction itself.
  Dataset d;
  for (double a = 1; a <= 12; ++a)
    for (double b = 1; b <= 12; ++b) d.add({a, b}, 1e-4 * a * b);
  MlpRegression mlp;
  mlp.fit(d);
  EXPECT_LT(mean_absolute_percentage_error(mlp, d), 0.15);
  // Interior generalization point.
  EXPECT_NEAR(mlp.predict({6.5, 6.5}), 1e-4 * 6.5 * 6.5,
              1e-4 * 6.5 * 6.5 * 0.25);
}

TEST(Mlp, ErrorsOnMisuse) {
  MlpRegression mlp;
  EXPECT_THROW(mlp.predict({1.0}), Error);
  EXPECT_THROW(mlp.fit(Dataset{}), Error);
  Dataset negative;
  negative.add({1.0}, -1.0);
  EXPECT_THROW(mlp.fit(negative), Error);
}

TEST(Factory, MakesAllKinds) {
  for (EstimatorKind kind :
       {EstimatorKind::kRandomForest, EstimatorKind::kRidgePoly,
        EstimatorKind::kNearestNeighbor, EstimatorKind::kMlp}) {
    auto model = make_regression_model(kind);
    const Dataset d = make_1d({{1, 1}, {2, 2}, {3, 3}});
    model->fit(d);
    EXPECT_GT(model->predict({2.0}), 0.0);
  }
}

TEST(Mape, ComputesMeanRelativeError) {
  const Dataset d = make_1d({{1, 100}, {2, 200}});
  NearestNeighbor nn;
  nn.fit(make_1d({{1, 110}, {2, 180}}));
  EXPECT_NEAR(mean_absolute_percentage_error(nn, d), 0.1, 1e-9);
}

class RuntimeEstimatorTest : public ::testing::Test {
 protected:
  static const ProfileDb& db() {
    static const ProfileDb instance = [] {
      NodeSpec node;
      node.sku = sku_by_name("a100");
      ProfilerOptions opts;
      opts.max_tokens = 4096;
      opts.max_prefill_kv = 4096;
      return profile_model(model_by_name("llama2-7b"), node, {1, 2}, opts);
    }();
    return instance;
  }
};

TEST_F(RuntimeEstimatorTest, PredictsCloseToProfiledPoints) {
  const RuntimeEstimator est(db());
  double mape = 0.0;
  int n = 0;
  for (const ProfilePoint& p : db().points({OpType::kAttnQkvProj, 1})) {
    OpInput in;
    in.tokens = static_cast<long>(p.features[0]);
    const double pred = est.predict_uncached(OpType::kAttnQkvProj, 1, in);
    // Individual points near quantization cliffs can deviate; bound each
    // point loosely and the aggregate tightly.
    EXPECT_NEAR(pred, p.runtime, p.runtime * 0.30);
    mape += std::abs(pred - p.runtime) / p.runtime;
    ++n;
  }
  EXPECT_LT(mape / n, 0.05);
}

TEST_F(RuntimeEstimatorTest, CacheHitsOnRepeatedQueries) {
  const RuntimeEstimator est(db());
  OpInput in;
  in.tokens = 333;
  const double first = est.predict(OpType::kMlpDownProj, 1, in);
  const auto misses = est.cache_misses();
  for (int i = 0; i < 10; ++i)
    EXPECT_DOUBLE_EQ(est.predict(OpType::kMlpDownProj, 1, in), first);
  EXPECT_EQ(est.cache_misses(), misses);
  EXPECT_GE(est.cache_hits(), 10u);
}

TEST_F(RuntimeEstimatorTest, DecodeKvQuantizationSharesCacheEntries) {
  const RuntimeEstimator est(db());
  OpInput a, b;
  a.kv_tokens = 10000;
  a.batch_size = 16;
  b.kv_tokens = 10010;  // rounds to the same 64-token bucket
  b.batch_size = 16;
  const double pa = est.predict(OpType::kAttnDecode, 1, a);
  const std::size_t size_after_first = est.cache_size();
  const double pb = est.predict(OpType::kAttnDecode, 1, b);
  EXPECT_DOUBLE_EQ(pa, pb);
  EXPECT_EQ(est.cache_size(), size_after_first);
}

TEST_F(RuntimeEstimatorTest, ConcurrentPredictsAreConsistent) {
  // Hammer the lock-free prediction cache from pool workers with heavily
  // overlapping keys: every cached value must equal the uncached
  // computation, and the hit/miss counters must account for every call.
  const RuntimeEstimator est(db());
  constexpr std::size_t kWorkers = 8;
  constexpr int kIters = 1500;
  ThreadPool pool(4);
  std::atomic<int> mismatches{0};
  parallel_for(pool, kWorkers, [&](std::size_t w) {
    for (int i = 0; i < kIters; ++i) {
      OpInput in;
      if (i % 3 == 0) {
        // Quantized path: KV multiples of the rounding granule, so the
        // uncached reference sees the same post-quantization input.
        in.kv_tokens = 64 * (1 + (i * 13 + static_cast<int>(w) * 7) % 128);
        in.batch_size = 8;
        const double got = est.predict(OpType::kAttnDecode, 1, in);
        const double want = est.predict_uncached(OpType::kAttnDecode, 1, in);
        if (got != want) mismatches.fetch_add(1);
      } else {
        in.tokens = 1 + (i * 13 + static_cast<int>(w) * 7) % 256;
        const double got = est.predict(OpType::kMlpGateUpProj, 1, in);
        const double want =
            est.predict_uncached(OpType::kMlpGateUpProj, 1, in);
        if (got != want) mismatches.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
  // Exact conservation, not just plausibility: predict() counts one lookup
  // per call, and misses are derived as lookups - hits, so the identity
  // holds bit-for-bit no matter how the CAS publications interleave.
  EXPECT_EQ(est.cache_lookups(), kWorkers * kIters);
  EXPECT_EQ(est.cache_hits() + est.cache_misses(), est.cache_lookups());
  EXPECT_EQ(est.cache_hits() + est.cache_misses(), kWorkers * kIters);
  // Every distinct key lands in the table; racing duplicate inserts are
  // benign but bounded by the worker count.
  EXPECT_GE(est.cache_size(), 256u);
  EXPECT_LE(est.cache_size(), (256u + 128u) * kWorkers);
}

TEST_F(RuntimeEstimatorTest, MissingModelThrows) {
  const RuntimeEstimator est(db());
  OpInput in;
  in.tokens = 10;
  EXPECT_THROW(est.predict_uncached(OpType::kMlpDownProj, 8, in), Error);
  EXPECT_FALSE(est.has_model(OpType::kMlpDownProj, 8));
  EXPECT_TRUE(est.has_model(OpType::kMlpDownProj, 2));
}

TEST_F(RuntimeEstimatorTest, PredictionsArePositive) {
  const RuntimeEstimator est(db());
  OpInput in;
  in.tokens = 1;
  for (OpType op : {OpType::kRmsNorm, OpType::kLmHead, OpType::kActMul})
    EXPECT_GT(est.predict_uncached(op, 1, in), 0.0) << op_name(op);
}

TEST_F(RuntimeEstimatorTest, HeldOutMapeSmall) {
  const RuntimeEstimator est(db());
  // Evaluate on the profile points themselves (in-sample, smoke-level).
  double mape = est.evaluate_mape({OpType::kAttnDecode, 1},
                                  db().points({OpType::kAttnDecode, 1}));
  EXPECT_LT(mape, 0.10);
}

TEST_F(RuntimeEstimatorTest, OversizedCollectiveDoesNotAliasSmallerOne) {
  // The packed key keeps 28 bits of the byte count: a 2^28 + 256 KiB
  // all-reduce used to share the key of a 256 KiB one and return its value.
  const RuntimeEstimator est(db());
  OpInput small, big;
  small.bytes = 256 << 10;
  big.bytes = (1L << 28) + (256 << 10);
  const double small_time = est.predict(OpType::kAllReduce, 2, small);
  const double big_time = est.predict(OpType::kAllReduce, 2, big);
  EXPECT_EQ(bits(big_time),
            bits(est.predict_uncached(OpType::kAllReduce, 2, big)));
  EXPECT_GT(big_time, small_time);
  // The oversized call skips the cache: one lookup, one miss, no entry.
  EXPECT_EQ(bits(est.predict(OpType::kAllReduce, 2, big)), bits(big_time));
  EXPECT_EQ(est.cache_lookups(), 3u);
  EXPECT_EQ(est.cache_hits(), 0u);
  EXPECT_EQ(est.cache_misses(), 3u);
  EXPECT_EQ(est.cache_size(), 1u);
}

TEST_F(RuntimeEstimatorTest, SaturatedCacheStaysExact) {
  // 64 slots cap inserts at 32 entries; every later miss recomputes.
  RuntimeEstimator::Options options;
  options.cache_slots = 64;
  const RuntimeEstimator est(db(), options);
  constexpr int kKeys = 200;
  std::size_t mismatches = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (int k = 0; k < kKeys; ++k) {
      OpInput in;
      in.tokens = 1 + 17 * k;
      if (bits(est.predict(OpType::kMlpGateUpProj, 1, in)) !=
          bits(est.predict_uncached(OpType::kMlpGateUpProj, 1, in)))
        ++mismatches;
    }
    EXPECT_EQ(est.cache_size(), 32u);
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(est.cache_lookups(), 2u * kKeys);
  EXPECT_EQ(est.cache_hits(), 32u);  // the second pass hits what fit
  EXPECT_EQ(est.cache_hits() + est.cache_misses(), est.cache_lookups());
}

/// A random integer input exercising every field any operator reads.
OpInput random_input(Rng& rng) {
  OpInput in;
  in.tokens = rng.uniform_int(0, 8192);
  in.q_tokens = rng.uniform_int(0, 8192);
  in.kv_tokens = in.q_tokens + rng.uniform_int(0, 1 << 16);
  in.batch_size = static_cast<int>(rng.uniform_int(0, 300));
  in.bytes = rng.uniform_int(0, 1L << 26);
  return in;
}

/// The input a profiled point's features were computed from.
OpInput input_of(OpType op, const std::vector<double>& f) {
  OpInput in;
  in.tokens = static_cast<long>(f[0]);
  in.bytes = static_cast<long>(f[0]);
  if (op == OpType::kAttnPrefill) {
    in.q_tokens = static_cast<long>(f[0]);
    in.kv_tokens = static_cast<long>(f[1]);
  } else if (op == OpType::kAttnDecode) {
    in.kv_tokens = static_cast<long>(f[0]);
    in.batch_size = static_cast<int>(f[1]);
  }
  return in;
}

/// Profiled points of `key` plus random integer inputs.
std::vector<OpInput> inputs_for(const ProfileDb& db, const ProfileKey& key,
                                Rng& rng) {
  std::vector<OpInput> out;
  for (const ProfilePoint& p : db.points(key))
    out.push_back(input_of(key.op, p.features));
  for (int i = 0; i < 300; ++i) out.push_back(random_input(rng));
  return out;
}

Dataset dataset_of(const ProfileDb& db, const ProfileKey& key) {
  Dataset d;
  for (const ProfilePoint& p : db.points(key)) d.add(p.features, p.runtime);
  return d;
}

TEST_F(RuntimeEstimatorTest, EveryModelsStepTableMatchesTreeWalk) {
  // Every forest but prefill attention's (three features) compiles, and the
  // table reads the tree walk's bits on the profiled and random inputs.
  // Prefill keeps walking its trees and equals the written-out forest.
  const std::uint64_t base_seed = RuntimeEstimator::Options{}.seed;
  const std::vector<ProfileKey> keys = db().keys();
  Rng rng(11);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const RandomForest::Options o{.num_trees = 32, .tree = {},
                                  .seed = base_seed + i};
    RandomForest forest(o);
    forest.fit(dataset_of(db(), keys[i]));
    EXPECT_EQ(forest.has_step_table(), keys[i].op != OpType::kAttnPrefill)
        << op_name(keys[i].op);
    std::vector<std::vector<double>> probes;
    for (const OpInput& in : inputs_for(db(), keys[i], rng))
      probes.push_back(in.features(keys[i].op));
    const BaggedTrees reference(dataset_of(db(), keys[i]), o);
    EXPECT_EQ(count_bit_mismatches(forest, reference, probes), 0u)
        << op_name(keys[i].op) << " shard " << keys[i].shard;
  }
}

TEST_F(RuntimeEstimatorTest, ParallelOnboardingMatchesSerialFits) {
  // Model i is seeded options.seed + i however the pool schedules the fits:
  // two estimators agree, and each model equals a serial fit.
  const RuntimeEstimator a(db());
  const RuntimeEstimator b(db());
  const std::vector<ProfileKey> keys = db().keys();
  Rng rng(5);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const OpType op = keys[i].op;
    const int shard = keys[i].shard;
    auto serial = make_regression_model(a.options().kind,
                                        a.options().seed + i);
    serial->fit(dataset_of(db(), keys[i]));
    std::size_t mismatches = 0;
    for (const OpInput& in : inputs_for(db(), keys[i], rng)) {
      const std::uint64_t got = bits(a.predict_uncached(op, shard, in));
      const double want = std::max(serial->predict(in.features(op)), 1e-7);
      if (got != bits(b.predict_uncached(op, shard, in)) ||
          got != bits(want))
        ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u) << op_name(op) << " shard " << shard;
  }
}

TEST(EstimatorOnboarding, FitFailureThrowsErrorFromTheConstructor) {
  // Pool tasks must not throw: the constructor rethrows a fit's failure
  // after the pool drains, the first one in key order.
  RuntimeEstimator::Options options;
  options.kind = EstimatorKind::kMlp;
  ProfileDb db;
  for (double t = 1; t <= 8; ++t) {
    db.add({OpType::kRmsNorm, 1}, {{t}, 1e-5 * t});
    db.add({OpType::kActMul, 1}, {{t}, t == 4 ? 0.0 : 1e-5 * t});
  }
  EXPECT_THROW((RuntimeEstimator{db, options}), Error);

  db.add({OpType::kAttnQkvProj, 1}, {{1.0}, 1e-5});
  db.add({OpType::kAttnQkvProj, 1}, {{2.0, 3.0}, 2e-5});
  try {
    const RuntimeEstimator est(db, options);
    ADD_FAILURE() << "constructor did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("inconsistent feature width"),
              std::string::npos)
        << e.what();
  }
}

TEST(EmptyProfile, EstimatorRejectsEmptyDb) {
  ProfileDb empty;
  EXPECT_THROW(RuntimeEstimator{empty}, Error);
}

}  // namespace
}  // namespace vidur
