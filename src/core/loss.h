// Loss functions: first/second derivatives per instance (paper Equation 1).
//
// Like XGBoost we use the un-doubled derivatives of the squared error
// (g = yhat - y, h = 1); the paper's g = 2(yhat - y), h = 2 differs only by a
// constant factor that cancels in the gain formula and in -G/(H + lambda)
// up to a rescaling of lambda.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>

#include "core/param.h"

namespace gbdt {

struct GradPair {
  double g = 0.0;
  double h = 0.0;
};

/// User-definable loss interface (the paper: "our algorithm supports user
/// defined loss functions").
class Loss {
 public:
  virtual ~Loss() = default;
  /// Derivatives of l(y, yhat) with respect to yhat.
  [[nodiscard]] virtual GradPair gradient(float y, float yhat) const = 0;
  /// Converts a raw model score into a prediction (identity for regression,
  /// sigmoid for logistic).
  [[nodiscard]] virtual double transform(double score) const { return score; }
  [[nodiscard]] virtual const char* name() const = 0;
};

class SquaredErrorLoss final : public Loss {
 public:
  [[nodiscard]] GradPair gradient(float y, float yhat) const override {
    return {static_cast<double>(yhat) - static_cast<double>(y), 1.0};
  }
  [[nodiscard]] const char* name() const override { return "squared_error"; }
};

class LogisticLoss final : public Loss {
 public:
  [[nodiscard]] GradPair gradient(float y, float yhat) const override {
    const double p = 1.0 / (1.0 + std::exp(-static_cast<double>(yhat)));
    return {p - static_cast<double>(y), std::max(p * (1.0 - p), 1e-16)};
  }
  [[nodiscard]] double transform(double score) const override {
    return 1.0 / (1.0 + std::exp(-score));
  }
  [[nodiscard]] const char* name() const override { return "logistic"; }
};

[[nodiscard]] std::unique_ptr<Loss> make_loss(LossKind kind);

/// Split gain of paper Equation 2 (without the constant 1/2, which does not
/// change the argmax; XGBoost omits it the same way).
[[nodiscard]] inline double split_gain(double gl, double hl, double gr,
                                       double hr, double lambda) {
  const double parent = (gl + gr) * (gl + gr) / (hl + hr + lambda);
  return gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - parent;
}

/// Gradient sums and instance count of one group of a node's instances.
struct GainStats {
  double g = 0.0;
  double h = 0.0;
  std::int64_t cnt = 0;
};

/// Winning gain of one candidate split and where its missing values go.
struct CandidateGain {
  double gain = 0.0;
  bool default_left = false;
};

/// Split gain of a candidate with a learned missing-value direction: `left`
/// holds the present instances on the high side, `present` every present
/// instance of the attribute, `node` the whole node.  Missing values go
/// right unless folding them into the left child gains strictly more.  With
/// no missing instances only the right-default gain is evaluated, which
/// keeps the direction deterministic across the sparse/RLE/out-of-core/CPU
/// paths.
[[nodiscard]] inline CandidateGain missing_aware_gain(const GainStats& left,
                                                      const GainStats& present,
                                                      const GainStats& node,
                                                      double lambda) {
  const std::int64_t miss = node.cnt - present.cnt;
  const double miss_g = node.g - present.g;
  const double miss_h = node.h - present.h;
  double gain_r = 0.0;
  if (left.cnt > 0 && node.cnt - left.cnt > 0) {
    gain_r = split_gain(left.g, left.h, node.g - left.g, node.h - left.h,
                        lambda);
  }
  double gain_l = 0.0;
  if (miss > 0 && present.cnt - left.cnt > 0) {
    gain_l = split_gain(left.g + miss_g, left.h + miss_h,
                        node.g - left.g - miss_g, node.h - left.h - miss_h,
                        lambda);
  }
  if (gain_l > gain_r) return {gain_l, true};
  return {gain_r, false};
}

/// Optimal leaf weight -G / (H + lambda).
[[nodiscard]] inline double leaf_weight(double g, double h, double lambda) {
  return -g / (h + lambda);
}

}  // namespace gbdt
