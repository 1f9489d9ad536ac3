// Small regression models for kernel-runtime interpolation (paper §4.4).
//
// The paper finds random-forest regression is the sweet spot between data
// frugality and fidelity; we implement it from scratch (CART trees + bagging)
// along with the two baselines it is compared against conceptually:
// polynomial (ridge) regression, which misses tile/wave-quantization
// non-linearities, and nearest-neighbor lookup, which is data-hungry.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"

namespace vidur {

/// Training data: `n` rows of `num_features` columns, row-major.
struct Dataset {
  int num_features = 0;
  std::vector<double> x;  ///< size n * num_features
  std::vector<double> y;  ///< size n

  std::size_t size() const { return y.size(); }
  const double* row(std::size_t i) const { return &x[i * num_features]; }
  void add(const std::vector<double>& features, double target);
};

/// Interface for all regressors.
class RegressionModel {
 public:
  virtual ~RegressionModel() = default;

  /// Fit on the dataset. Throws vidur::Error when the data is unusable
  /// (empty, or feature-width mismatch).
  virtual void fit(const Dataset& data) = 0;

  /// Predict a single point (size must equal num_features of training data).
  virtual double predict(const std::vector<double>& features) const = 0;
};

/// CART regression tree: greedy variance-reduction splits.
class DecisionTree final : public RegressionModel {
 public:
  struct Options {
    int max_depth = 14;
    int min_samples_leaf = 1;
  };

  DecisionTree() : DecisionTree(Options{}) {}
  explicit DecisionTree(Options options) : options_(options) {}

  void fit(const Dataset& data) override;
  double predict(const std::vector<double>& features) const override;

  /// Fit on a bootstrap subset given by row indices (used by RandomForest).
  void fit_subset(const Dataset& data, const std::vector<std::size_t>& rows);

  std::size_t num_nodes() const { return nodes_.size(); }

 private:
  friend class RandomForest;  // compiles its trees into a step table

  struct Node {
    int feature = -1;       // -1 for leaves
    double threshold = 0.0;
    double value = 0.0;      // leaf prediction
    std::int32_t left = -1;  // child indices
    std::int32_t right = -1;
  };

  std::int32_t build(const Dataset& data, std::vector<std::size_t>& rows,
                     std::size_t begin, std::size_t end, int depth);

  Options options_;
  std::vector<Node> nodes_;
  int num_features_ = 0;
};

/// Bagged random forest of CART trees.
///
/// A forest over one or two features is piecewise constant on the grid its
/// split thresholds cut, so fit() compiles it into a step table: per feature
/// the sorted distinct thresholds of all trees, and one value per grid cell
/// holding exactly what the tree walk computes there (the leaf values summed
/// in tree order from 0.0, divided by the tree count). predict() then costs
/// one binary search per feature instead of a walk down every tree, and
/// returns the same bits. Forests over more features, or whose grid would
/// outweigh kMaxTableToNodeBytes times their own node storage, keep walking.
class RandomForest final : public RegressionModel {
 public:
  struct Options {
    int num_trees = 32;
    DecisionTree::Options tree;
    std::uint64_t seed = 0x5eedULL;
  };

  /// Largest step table, as a multiple of the bytes the forest's nodes take.
  static constexpr std::size_t kMaxTableToNodeBytes = 4;

  RandomForest() : RandomForest(Options{}) {}
  explicit RandomForest(Options options) : options_(options) {}

  void fit(const Dataset& data) override;
  double predict(const std::vector<double>& features) const override;

  /// The tree walk: the reference the step table reproduces bit for bit.
  double predict_trees(const std::vector<double>& features) const;

  /// True when fit() compiled a step table that predict() reads.
  bool has_step_table() const { return !cells_.empty(); }

 private:
  void compile_step_table();

  Options options_;
  std::vector<DecisionTree> trees_;
  int num_features_ = 0;
  /// Step table (empty when not compiled): sorted distinct split thresholds
  /// per feature, and the cells in row-major order with feature 0 the slow
  /// axis. A feature's interval is the count of its thresholds t with
  /// !(x <= t), which sends NaN right at every split, as the trees do.
  std::vector<double> thresholds_[2];
  std::vector<double> cells_;
};

/// Ridge regression on polynomial feature expansion (degree <= 3).
class RidgePolyRegression final : public RegressionModel {
 public:
  struct Options {
    int degree = 2;
    double lambda = 1e-6;
  };

  RidgePolyRegression() : RidgePolyRegression(Options{}) {}
  explicit RidgePolyRegression(Options options) : options_(options) {}

  void fit(const Dataset& data) override;
  double predict(const std::vector<double>& features) const override;

 private:
  std::vector<double> expand(const double* row) const;

  Options options_;
  int num_features_ = 0;
  std::vector<double> weights_;
  std::vector<double> feature_scale_;
};

/// 1-nearest-neighbor lookup in scale-normalized feature space.
class NearestNeighbor final : public RegressionModel {
 public:
  void fit(const Dataset& data) override;
  double predict(const std::vector<double>& features) const override;

 private:
  Dataset data_;
  std::vector<double> feature_scale_;
};

/// Small fully-connected MLP trained with Adam — the data-hungry baseline
/// prior training simulators use for opaque kernels (paper §4.4, citing
/// Habitat). Features are standardized; the target is regressed in log space
/// (kernel runtimes are positive and span decades), so predictions are
/// always positive.
class MlpRegression final : public RegressionModel {
 public:
  struct Options {
    std::vector<int> hidden = {32, 32};
    int epochs = 400;
    int batch_size = 32;
    double learning_rate = 1e-3;
    double weight_decay = 1e-5;
    std::uint64_t seed = 0x5eedULL;
  };

  MlpRegression() : MlpRegression(Options{}) {}
  explicit MlpRegression(Options options) : options_(std::move(options)) {}

  void fit(const Dataset& data) override;
  double predict(const std::vector<double>& features) const override;

 private:
  struct Layer {
    int in = 0, out = 0;
    std::vector<double> w;  ///< out x in, row-major
    std::vector<double> b;  ///< out
  };

  std::vector<double> standardized(const std::vector<double>& features) const;

  Options options_;
  std::vector<Layer> layers_;
  std::vector<double> feature_mean_, feature_std_;
  double target_mean_ = 0.0, target_std_ = 1.0;
};

enum class EstimatorKind { kRandomForest, kRidgePoly, kNearestNeighbor, kMlp };

/// Factory for the estimator ablation bench.
std::unique_ptr<RegressionModel> make_regression_model(
    EstimatorKind kind, std::uint64_t seed = 0x5eedULL);

/// Mean absolute percentage error of `model` on a dataset.
double mean_absolute_percentage_error(const RegressionModel& model,
                                      const Dataset& data);

}  // namespace vidur
