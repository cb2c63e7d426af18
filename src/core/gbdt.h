// Public facade: a trained GBDT model — train on a simulated device, predict
// on host or device, save/load as text.
#pragma once

#include <string>
#include <vector>

#include "core/loss.h"
#include "core/param.h"
#include "core/trainer.h"
#include "core/tree.h"
#include "data/dataset.h"
#include "device/device_context.h"

namespace gbdt {

/// How to rank features (XGBoost-compatible notions).
enum class ImportanceKind {
  kGain,        // total split gain contributed by the feature
  kCover,       // total instances routed through the feature's splits
  kSplitCount,  // number of splits using the feature
};

/// Validation metric trace from train_with_validation.  With the default
/// eval_freq = 1 every trained tree is scored; larger eval_freq scores every
/// eval_freq-th tree (plus the last), and eval_iteration records which.
struct ValidationHistory {
  std::string metric_name;            // "rmse", "error", or "ndcg@k"
  std::vector<double> metric;         // one entry per evaluated round
  std::vector<int> eval_iteration;    // tree index of each evaluated round
  int best_iteration = -1;            // tree index with the best metric
  bool stopped_early = false;
};

class GBDTModel {
 public:
  GBDTModel() = default;
  GBDTModel(GBDTParam param, std::vector<Tree> trees, double base_score,
            std::int64_t n_attributes = 0)
      : param_(std::move(param)),
        trees_(std::move(trees)),
        base_score_(base_score),
        n_attributes_(n_attributes) {}

  /// Trains with GpuGbdtTrainer on `dev` (the method param.use_hist_trainer
  /// picks) and returns the model plus the report.
  [[nodiscard]] static std::pair<GBDTModel, TrainReport> train(
      device::Device& dev, const data::Dataset& ds, const GBDTParam& param);

  /// Trains while tracking a validation metric (rmse for regression, error
  /// rate for logistic loss, NDCG@k for the ranking objective — the
  /// validation set then needs query offsets).  param.eval_freq controls how
  /// often the metric is scored.  When early_stopping_rounds > 0, boosting
  /// stops once the metric has not improved for that many consecutive
  /// evaluations and the forest is truncated to the best iteration.
  [[nodiscard]] static std::tuple<GBDTModel, TrainReport, ValidationHistory>
  train_with_validation(device::Device& dev, const data::Dataset& train_set,
                        const data::Dataset& validation,
                        const GBDTParam& param,
                        int early_stopping_rounds = 0);

  [[nodiscard]] const std::vector<Tree>& trees() const { return trees_; }
  [[nodiscard]] const GBDTParam& param() const { return param_; }
  [[nodiscard]] double base_score() const { return base_score_; }

  /// Raw score of one sparse instance (attrs sorted ascending).  Flattens
  /// the forest per call; score many rows through predict or RowPredictor.
  [[nodiscard]] double predict_one(std::span<const data::Entry> x) const;

  /// Raw scores on the host, one per instance: one RowPredictor over the
  /// forest, bitwise equal to predict_device.
  [[nodiscard]] std::vector<double> predict(const data::Dataset& ds) const;

  /// Raw scores computed with the device prediction kernel (paper III-D).
  [[nodiscard]] std::vector<double> predict_device(
      device::Device& dev, const data::Dataset& ds) const;

  /// Applies the loss transform (e.g. sigmoid) to raw scores.
  [[nodiscard]] std::vector<double> transform_scores(
      std::span<const double> raw) const;

  /// Importance score per attribute (length n_attributes()); scores sum to
  /// 1 when any splits exist.
  [[nodiscard]] std::vector<double> feature_importance(
      ImportanceKind kind = ImportanceKind::kGain) const;

  [[nodiscard]] std::int64_t n_attributes() const { return n_attributes_; }

  void save(const std::string& path) const;
  [[nodiscard]] static GBDTModel load(const std::string& path);

 private:
  GBDTParam param_;
  std::vector<Tree> trees_;
  double base_score_ = 0.0;
  std::int64_t n_attributes_ = 0;
};

}  // namespace gbdt
