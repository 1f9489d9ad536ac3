#include "estimator/regression.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.h"

namespace vidur {

void Dataset::add(const std::vector<double>& features, double target) {
  if (y.empty()) {
    num_features = static_cast<int>(features.size());
  } else {
    VIDUR_CHECK_MSG(static_cast<int>(features.size()) == num_features,
                    "inconsistent feature width");
  }
  x.insert(x.end(), features.begin(), features.end());
  y.push_back(target);
}

// ---------------------------------------------------------------- tree ----

void DecisionTree::fit(const Dataset& data) {
  std::vector<std::size_t> rows(data.size());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  fit_subset(data, rows);
}

void DecisionTree::fit_subset(const Dataset& data,
                              const std::vector<std::size_t>& rows) {
  VIDUR_CHECK_MSG(!rows.empty(), "cannot fit a tree on an empty dataset");
  VIDUR_CHECK(data.num_features >= 1);
  num_features_ = data.num_features;
  nodes_.clear();
  std::vector<std::size_t> work = rows;
  build(data, work, 0, work.size(), 0);
}

std::int32_t DecisionTree::build(const Dataset& data,
                                 std::vector<std::size_t>& rows,
                                 std::size_t begin, std::size_t end,
                                 int depth) {
  const auto node_index = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();

  const std::size_t n = end - begin;
  double sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) sum += data.y[rows[i]];
  const double mean = sum / static_cast<double>(n);
  nodes_[node_index].value = mean;

  if (depth >= options_.max_depth ||
      n < 2 * static_cast<std::size_t>(options_.min_samples_leaf) || n < 2)
    return node_index;

  // Find the split (feature, threshold) with max SSE reduction.
  double parent_sse = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    const double d = data.y[rows[i]] - mean;
    parent_sse += d * d;
  }
  if (parent_sse <= 1e-30) return node_index;  // pure leaf

  int best_feature = -1;
  double best_threshold = 0.0;
  double best_sse = parent_sse;

  std::vector<std::size_t> order(rows.begin() + static_cast<long>(begin),
                                 rows.begin() + static_cast<long>(end));
  for (int f = 0; f < num_features_; ++f) {
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return data.row(a)[f] < data.row(b)[f];
    });
    // Incremental left/right sums over the sorted order.
    double left_sum = 0.0, left_sq = 0.0;
    double right_sum = 0.0, right_sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double v = data.y[order[i]];
      right_sum += v;
      right_sq += v * v;
    }
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const double v = data.y[order[i]];
      left_sum += v;
      left_sq += v * v;
      right_sum -= v;
      right_sq -= v * v;
      const double xv = data.row(order[i])[f];
      const double xnext = data.row(order[i + 1])[f];
      if (xv == xnext) continue;  // cannot split between equal values
      const auto nl = static_cast<double>(i + 1);
      const auto nr = static_cast<double>(n - i - 1);
      if (nl < options_.min_samples_leaf || nr < options_.min_samples_leaf)
        continue;
      const double sse_l = left_sq - left_sum * left_sum / nl;
      const double sse_r = right_sq - right_sum * right_sum / nr;
      const double sse = sse_l + sse_r;
      if (sse < best_sse - 1e-30) {
        best_sse = sse;
        best_feature = f;
        best_threshold = 0.5 * (xv + xnext);
      }
    }
  }

  if (best_feature < 0) return node_index;

  // Partition rows in place around the threshold.
  auto mid_it = std::partition(
      rows.begin() + static_cast<long>(begin),
      rows.begin() + static_cast<long>(end), [&](std::size_t r) {
        return data.row(r)[best_feature] <= best_threshold;
      });
  const auto mid = static_cast<std::size_t>(mid_it - rows.begin());
  if (mid == begin || mid == end) return node_index;  // degenerate

  nodes_[node_index].feature = best_feature;
  nodes_[node_index].threshold = best_threshold;
  const std::int32_t left = build(data, rows, begin, mid, depth + 1);
  nodes_[node_index].left = left;
  const std::int32_t right = build(data, rows, mid, end, depth + 1);
  nodes_[node_index].right = right;
  return node_index;
}

double DecisionTree::predict(const std::vector<double>& features) const {
  VIDUR_CHECK_MSG(!nodes_.empty(), "predict() before fit()");
  VIDUR_CHECK(static_cast<int>(features.size()) == num_features_);
  std::int32_t node = 0;
  while (nodes_[static_cast<std::size_t>(node)].feature >= 0) {
    const Node& nd = nodes_[static_cast<std::size_t>(node)];
    node = features[static_cast<std::size_t>(nd.feature)] <= nd.threshold
               ? nd.left
               : nd.right;
  }
  return nodes_[static_cast<std::size_t>(node)].value;
}

// -------------------------------------------------------------- forest ----

void RandomForest::fit(const Dataset& data) {
  VIDUR_CHECK_MSG(data.size() > 0, "cannot fit a forest on an empty dataset");
  VIDUR_CHECK(options_.num_trees >= 1);
  trees_.clear();
  cells_.clear();  // a refit that throws must not leave the old table
  for (auto& t : thresholds_) t.clear();
  trees_.reserve(static_cast<std::size_t>(options_.num_trees));
  Rng rng(options_.seed);
  const std::size_t n = data.size();
  std::vector<std::size_t> rows(n);
  for (int t = 0; t < options_.num_trees; ++t) {
    for (auto& r : rows)
      r = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    DecisionTree tree(options_.tree);
    tree.fit_subset(data, rows);
    trees_.push_back(std::move(tree));
  }
  num_features_ = data.num_features;
  compile_step_table();
}

namespace {

/// Interval of `x` among sorted thresholds: the count of thresholds t with
/// !(x <= t). Those form a prefix of the sorted order (all of it for NaN).
std::size_t interval_of(const std::vector<double>& thresholds, double x) {
  return static_cast<std::size_t>(
      std::partition_point(thresholds.begin(), thresholds.end(),
                           [x](double t) { return !(x <= t); }) -
      thresholds.begin());
}

}  // namespace

void RandomForest::compile_step_table() {
  if (num_features_ > 2) return;

  std::vector<double> thresholds[2];
  std::size_t node_bytes = 0;
  for (const DecisionTree& tree : trees_) {
    node_bytes += tree.nodes_.size() * sizeof(DecisionTree::Node);
    for (const DecisionTree::Node& node : tree.nodes_)
      if (node.feature >= 0)
        thresholds[node.feature].push_back(node.threshold);
  }
  std::size_t num_cells = 1;
  for (auto& t : thresholds) {
    std::sort(t.begin(), t.end());
    t.erase(std::unique(t.begin(), t.end()), t.end());
    num_cells *= t.size() + 1;
  }
  if (num_cells * sizeof(double) > kMaxTableToNodeBytes * node_bytes) return;

  // Every cell lies in exactly one leaf of each tree, so adding each leaf's
  // value to the cells of its box, tree by tree, sums each cell's leaf
  // values in the order predict_trees() adds them.
  const std::size_t stride = thresholds[1].size() + 1;
  std::vector<double> cells(num_cells, 0.0);
  struct Box {
    std::int32_t node;
    std::size_t lo[2], hi[2];  // half-open interval ranges per feature
  };
  std::vector<Box> stack;
  for (const DecisionTree& tree : trees_) {
    stack.push_back({0, {0, 0}, {thresholds[0].size() + 1, stride}});
    while (!stack.empty()) {
      const Box box = stack.back();
      stack.pop_back();
      const DecisionTree::Node& node =
          tree.nodes_[static_cast<std::size_t>(box.node)];
      if (node.feature < 0) {
        for (std::size_t i0 = box.lo[0]; i0 < box.hi[0]; ++i0)
          for (std::size_t i1 = box.lo[1]; i1 < box.hi[1]; ++i1)
            cells[i0 * stride + i1] += node.value;
        continue;
      }
      // x <= threshold holds exactly on the intervals up to the threshold's
      // own index, so the left child keeps those and the right the rest.
      const auto f = static_cast<std::size_t>(node.feature);
      const std::vector<double>& t = thresholds[f];
      const std::size_t split =
          static_cast<std::size_t>(
              std::lower_bound(t.begin(), t.end(), node.threshold) -
              t.begin()) +
          1;
      Box left = box, right = box;
      left.node = node.left;
      left.hi[f] = std::min(box.hi[f], split);
      right.node = node.right;
      right.lo[f] = std::max(box.lo[f], split);
      stack.push_back(right);
      stack.push_back(left);
    }
  }
  for (double& v : cells) v /= static_cast<double>(trees_.size());

  thresholds_[0] = std::move(thresholds[0]);
  thresholds_[1] = std::move(thresholds[1]);
  cells_ = std::move(cells);
}

double RandomForest::predict(const std::vector<double>& features) const {
  if (!has_step_table()) return predict_trees(features);
  VIDUR_CHECK(static_cast<int>(features.size()) == num_features_);
  std::size_t cell = interval_of(thresholds_[0], features[0]);
  if (num_features_ == 2)
    cell = cell * (thresholds_[1].size() + 1) +
           interval_of(thresholds_[1], features[1]);
  return cells_[cell];
}

double RandomForest::predict_trees(
    const std::vector<double>& features) const {
  VIDUR_CHECK_MSG(!trees_.empty(), "predict() before fit()");
  double sum = 0.0;
  for (const auto& tree : trees_) sum += tree.predict(features);
  return sum / static_cast<double>(trees_.size());
}

// ---------------------------------------------------------------- ridge ----

std::vector<double> RidgePolyRegression::expand(const double* row) const {
  // Scaled features -> polynomial basis with cross terms up to `degree`.
  std::vector<double> scaled(static_cast<std::size_t>(num_features_));
  for (int f = 0; f < num_features_; ++f)
    scaled[static_cast<std::size_t>(f)] =
        row[f] / feature_scale_[static_cast<std::size_t>(f)];

  std::vector<double> out = {1.0};
  for (double v : scaled) out.push_back(v);
  if (options_.degree >= 2) {
    for (int i = 0; i < num_features_; ++i)
      for (int j = i; j < num_features_; ++j)
        out.push_back(scaled[static_cast<std::size_t>(i)] *
                      scaled[static_cast<std::size_t>(j)]);
  }
  if (options_.degree >= 3) {
    for (int i = 0; i < num_features_; ++i)
      for (int j = i; j < num_features_; ++j)
        for (int k = j; k < num_features_; ++k)
          out.push_back(scaled[static_cast<std::size_t>(i)] *
                        scaled[static_cast<std::size_t>(j)] *
                        scaled[static_cast<std::size_t>(k)]);
  }
  return out;
}

void RidgePolyRegression::fit(const Dataset& data) {
  VIDUR_CHECK_MSG(data.size() > 0, "cannot fit ridge on an empty dataset");
  VIDUR_CHECK(options_.degree >= 1 && options_.degree <= 3);
  num_features_ = data.num_features;

  feature_scale_.assign(static_cast<std::size_t>(num_features_), 1.0);
  for (std::size_t i = 0; i < data.size(); ++i)
    for (int f = 0; f < num_features_; ++f)
      feature_scale_[static_cast<std::size_t>(f)] = std::max(
          feature_scale_[static_cast<std::size_t>(f)], std::abs(data.row(i)[f]));

  const std::size_t p = expand(data.row(0)).size();
  // Normal equations: (X'X + lambda I) w = X'y, solved by Gauss elimination.
  std::vector<double> xtx(p * p, 0.0);
  std::vector<double> xty(p, 0.0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto phi = expand(data.row(i));
    for (std::size_t a = 0; a < p; ++a) {
      xty[a] += phi[a] * data.y[i];
      for (std::size_t b = 0; b < p; ++b) xtx[a * p + b] += phi[a] * phi[b];
    }
  }
  for (std::size_t a = 0; a < p; ++a) xtx[a * p + a] += options_.lambda;

  // Gaussian elimination with partial pivoting.
  std::vector<double> w = xty;
  for (std::size_t col = 0; col < p; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < p; ++r)
      if (std::abs(xtx[r * p + col]) > std::abs(xtx[pivot * p + col]))
        pivot = r;
    if (pivot != col) {
      for (std::size_t c = 0; c < p; ++c)
        std::swap(xtx[col * p + c], xtx[pivot * p + c]);
      std::swap(w[col], w[pivot]);
    }
    const double diag = xtx[col * p + col];
    VIDUR_CHECK_MSG(std::abs(diag) > 1e-30, "singular design matrix");
    for (std::size_t r = 0; r < p; ++r) {
      if (r == col) continue;
      const double factor = xtx[r * p + col] / diag;
      if (factor == 0.0) continue;
      for (std::size_t c = col; c < p; ++c)
        xtx[r * p + c] -= factor * xtx[col * p + c];
      w[r] -= factor * w[col];
    }
  }
  weights_.assign(p, 0.0);
  for (std::size_t a = 0; a < p; ++a) weights_[a] = w[a] / xtx[a * p + a];
}

double RidgePolyRegression::predict(const std::vector<double>& features) const {
  VIDUR_CHECK_MSG(!weights_.empty(), "predict() before fit()");
  VIDUR_CHECK(static_cast<int>(features.size()) == num_features_);
  const auto phi = expand(features.data());
  double out = 0.0;
  for (std::size_t a = 0; a < phi.size(); ++a) out += weights_[a] * phi[a];
  return out;
}

// ------------------------------------------------------------------ 1nn ----

void NearestNeighbor::fit(const Dataset& data) {
  VIDUR_CHECK_MSG(data.size() > 0, "cannot fit 1-NN on an empty dataset");
  data_ = data;
  feature_scale_.assign(static_cast<std::size_t>(data.num_features), 1.0);
  for (std::size_t i = 0; i < data.size(); ++i)
    for (int f = 0; f < data.num_features; ++f)
      feature_scale_[static_cast<std::size_t>(f)] = std::max(
          feature_scale_[static_cast<std::size_t>(f)], std::abs(data.row(i)[f]));
}

double NearestNeighbor::predict(const std::vector<double>& features) const {
  VIDUR_CHECK_MSG(data_.size() > 0, "predict() before fit()");
  VIDUR_CHECK(static_cast<int>(features.size()) == data_.num_features);
  double best = std::numeric_limits<double>::infinity();
  double value = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    double dist = 0.0;
    for (int f = 0; f < data_.num_features; ++f) {
      const double d = (features[static_cast<std::size_t>(f)] -
                        data_.row(i)[f]) /
                       feature_scale_[static_cast<std::size_t>(f)];
      dist += d * d;
    }
    if (dist < best) {
      best = dist;
      value = data_.y[i];
    }
  }
  return value;
}

// ------------------------------------------------------------------ mlp ----

void MlpRegression::fit(const Dataset& data) {
  VIDUR_CHECK_MSG(data.size() > 0, "cannot fit MLP on an empty dataset");
  VIDUR_CHECK(data.num_features > 0);
  const std::size_t n = data.size();
  const int nf = data.num_features;

  // Standardize features; regress log(y) standardized.
  feature_mean_.assign(static_cast<std::size_t>(nf), 0.0);
  feature_std_.assign(static_cast<std::size_t>(nf), 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (int f = 0; f < nf; ++f)
      feature_mean_[static_cast<std::size_t>(f)] += data.row(i)[f];
  for (double& m : feature_mean_) m /= static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i)
    for (int f = 0; f < nf; ++f) {
      const double d =
          data.row(i)[f] - feature_mean_[static_cast<std::size_t>(f)];
      feature_std_[static_cast<std::size_t>(f)] += d * d;
    }
  for (double& s : feature_std_)
    s = std::max(std::sqrt(s / static_cast<double>(n)), 1e-12);

  std::vector<double> log_y(n);
  target_mean_ = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    VIDUR_CHECK_MSG(data.y[i] > 0, "MLP regression requires positive targets");
    log_y[i] = std::log(data.y[i]);
    target_mean_ += log_y[i];
  }
  target_mean_ /= static_cast<double>(n);
  target_std_ = 0.0;
  for (const double v : log_y) target_std_ += (v - target_mean_) * (v - target_mean_);
  target_std_ = std::max(std::sqrt(target_std_ / static_cast<double>(n)), 1e-12);

  // He-initialized layers: nf -> hidden... -> 1.
  Rng rng(options_.seed);
  layers_.clear();
  int prev = nf;
  auto add_layer = [&](int out) {
    Layer layer;
    layer.in = prev;
    layer.out = out;
    layer.w.resize(static_cast<std::size_t>(out) * prev);
    layer.b.assign(static_cast<std::size_t>(out), 0.0);
    const double scale = std::sqrt(2.0 / prev);
    for (double& w : layer.w) w = scale * rng.normal();
    layers_.push_back(std::move(layer));
    prev = out;
  };
  for (const int h : options_.hidden) {
    VIDUR_CHECK(h > 0);
    add_layer(h);
  }
  add_layer(1);

  // Adam state.
  struct Moments {
    std::vector<double> mw, vw, mb, vb;
  };
  std::vector<Moments> moments(layers_.size());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    moments[l].mw.assign(layers_[l].w.size(), 0.0);
    moments[l].vw.assign(layers_[l].w.size(), 0.0);
    moments[l].mb.assign(layers_[l].b.size(), 0.0);
    moments[l].vb.assign(layers_[l].b.size(), 0.0);
  }
  constexpr double kBeta1 = 0.9, kBeta2 = 0.999, kEps = 1e-8;

  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;

  // Forward activations / backward deltas reused across samples.
  std::vector<std::vector<double>> act(layers_.size() + 1);
  std::vector<std::vector<double>> delta(layers_.size());
  // Per-batch gradient accumulators.
  std::vector<Layer> grads = layers_;  // same shapes, values overwritten

  long step = 0;
  const int batch = std::max(1, options_.batch_size);
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t start = 0; start < n; start += batch) {
      const std::size_t stop = std::min(n, start + batch);
      for (Layer& g : grads) {
        std::fill(g.w.begin(), g.w.end(), 0.0);
        std::fill(g.b.begin(), g.b.end(), 0.0);
      }
      for (std::size_t bi = start; bi < stop; ++bi) {
        const std::size_t i = order[bi];
        // Forward.
        act[0].assign(static_cast<std::size_t>(nf), 0.0);
        for (int f = 0; f < nf; ++f)
          act[0][static_cast<std::size_t>(f)] =
              (data.row(i)[f] - feature_mean_[static_cast<std::size_t>(f)]) /
              feature_std_[static_cast<std::size_t>(f)];
        for (std::size_t l = 0; l < layers_.size(); ++l) {
          const Layer& layer = layers_[l];
          act[l + 1].assign(static_cast<std::size_t>(layer.out), 0.0);
          for (int o = 0; o < layer.out; ++o) {
            double z = layer.b[static_cast<std::size_t>(o)];
            const double* w = &layer.w[static_cast<std::size_t>(o) * layer.in];
            for (int in = 0; in < layer.in; ++in)
              z += w[in] * act[l][static_cast<std::size_t>(in)];
            // ReLU on hidden layers; identity on the output.
            act[l + 1][static_cast<std::size_t>(o)] =
                (l + 1 < layers_.size()) ? std::max(0.0, z) : z;
          }
        }
        // Backward (squared error on the standardized log target).
        const double target = (log_y[i] - target_mean_) / target_std_;
        delta.back().assign(1, act.back()[0] - target);
        for (std::size_t l = layers_.size(); l-- > 0;) {
          const Layer& layer = layers_[l];
          Layer& g = grads[l];
          if (l > 0) delta[l - 1].assign(static_cast<std::size_t>(layer.in), 0.0);
          for (int o = 0; o < layer.out; ++o) {
            const double d = delta[l][static_cast<std::size_t>(o)];
            if (d == 0.0) continue;
            g.b[static_cast<std::size_t>(o)] += d;
            double* gw = &g.w[static_cast<std::size_t>(o) * layer.in];
            const double* w = &layer.w[static_cast<std::size_t>(o) * layer.in];
            for (int in = 0; in < layer.in; ++in) {
              gw[in] += d * act[l][static_cast<std::size_t>(in)];
              if (l > 0 && act[l][static_cast<std::size_t>(in)] > 0.0)
                delta[l - 1][static_cast<std::size_t>(in)] += d * w[in];
            }
          }
        }
      }
      // Adam update with the mini-batch mean gradient.
      ++step;
      const double inv = 1.0 / static_cast<double>(stop - start);
      const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(step));
      const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(step));
      for (std::size_t l = 0; l < layers_.size(); ++l) {
        Layer& layer = layers_[l];
        Moments& m = moments[l];
        auto update = [&](double& param, double grad, double& m1, double& m2) {
          grad = grad * inv + options_.weight_decay * param;
          m1 = kBeta1 * m1 + (1.0 - kBeta1) * grad;
          m2 = kBeta2 * m2 + (1.0 - kBeta2) * grad * grad;
          param -= options_.learning_rate * (m1 / bc1) /
                   (std::sqrt(m2 / bc2) + kEps);
        };
        for (std::size_t k = 0; k < layer.w.size(); ++k)
          update(layer.w[k], grads[l].w[k], m.mw[k], m.vw[k]);
        for (std::size_t k = 0; k < layer.b.size(); ++k)
          update(layer.b[k], grads[l].b[k], m.mb[k], m.vb[k]);
      }
    }
  }
}

std::vector<double> MlpRegression::standardized(
    const std::vector<double>& features) const {
  std::vector<double> z(features.size());
  for (std::size_t f = 0; f < features.size(); ++f)
    z[f] = (features[f] - feature_mean_[f]) / feature_std_[f];
  return z;
}

double MlpRegression::predict(const std::vector<double>& features) const {
  VIDUR_CHECK_MSG(!layers_.empty(), "predict() before fit()");
  VIDUR_CHECK(features.size() == feature_mean_.size());
  std::vector<double> cur = standardized(features);
  std::vector<double> next;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    next.assign(static_cast<std::size_t>(layer.out), 0.0);
    for (int o = 0; o < layer.out; ++o) {
      double z = layer.b[static_cast<std::size_t>(o)];
      const double* w = &layer.w[static_cast<std::size_t>(o) * layer.in];
      for (int in = 0; in < layer.in; ++in)
        z += w[in] * cur[static_cast<std::size_t>(in)];
      next[static_cast<std::size_t>(o)] =
          (l + 1 < layers_.size()) ? std::max(0.0, z) : z;
    }
    cur.swap(next);
  }
  return std::exp(cur[0] * target_std_ + target_mean_);
}

// -------------------------------------------------------------- factory ----

std::unique_ptr<RegressionModel> make_regression_model(EstimatorKind kind,
                                                       std::uint64_t seed) {
  switch (kind) {
    case EstimatorKind::kRandomForest: {
      RandomForest::Options o;
      o.seed = seed;
      return std::make_unique<RandomForest>(o);
    }
    case EstimatorKind::kRidgePoly:
      return std::make_unique<RidgePolyRegression>();
    case EstimatorKind::kNearestNeighbor:
      return std::make_unique<NearestNeighbor>();
    case EstimatorKind::kMlp: {
      MlpRegression::Options o;
      o.seed = seed;
      return std::make_unique<MlpRegression>(o);
    }
  }
  throw Error("unhandled EstimatorKind");
}

double mean_absolute_percentage_error(const RegressionModel& model,
                                      const Dataset& data) {
  VIDUR_CHECK(data.size() > 0);
  double acc = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (data.y[i] <= 0.0) continue;
    std::vector<double> features(data.row(i),
                                 data.row(i) + data.num_features);
    acc += std::abs(model.predict(features) - data.y[i]) / data.y[i];
    ++n;
  }
  VIDUR_CHECK(n > 0);
  return acc / static_cast<double>(n);
}

}  // namespace vidur
