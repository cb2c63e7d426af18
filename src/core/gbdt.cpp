#include "core/gbdt.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "core/metrics.h"
#include "core/predictor.h"
#include "objective/early_stop.h"

namespace gbdt {

std::pair<GBDTModel, TrainReport> GBDTModel::train(device::Device& dev,
                                                   const data::Dataset& ds,
                                                   const GBDTParam& param) {
  TrainReport report = GpuGbdtTrainer(dev, param).train(ds);
  GBDTModel model(param, report.trees, report.base_score, ds.n_attributes());
  return {std::move(model), std::move(report)};
}

std::tuple<GBDTModel, TrainReport, ValidationHistory>
GBDTModel::train_with_validation(device::Device& dev,
                                 const data::Dataset& train_set,
                                 const data::Dataset& validation,
                                 const GBDTParam& param,
                                 int early_stopping_rounds) {
  const auto loss = make_loss(param.loss);
  const bool ranking = param.objective == ObjectiveKind::kRanking;
  const bool classification = param.loss == LossKind::kLogistic;
  if (ranking && !validation.has_queries()) {
    throw std::invalid_argument(
        "ranking validation needs query groups on the validation set");
  }

  ValidationHistory history;
  history.metric_name = ranking
                            ? "ndcg@" + std::to_string(param.ndcg_k)
                            : classification ? "error" : "rmse";

  // Incremental validation scores, updated after every trained tree (the
  // per-tree update stays cheap even on skipped-evaluation rounds).
  std::vector<double> scores(static_cast<std::size_t>(validation.n_instances()),
                             param.base_score);
  auto metric_now = [&]() {
    if (ranking) {
      // NDCG depends only on the score ordering, so raw scores suffice.
      return ndcg_at_k(scores, validation.labels(),
                       validation.query_offsets(), param.ndcg_k);
    }
    double bad = 0.0;
    for (std::int64_t i = 0; i < validation.n_instances(); ++i) {
      const double pred = loss->transform(scores[static_cast<std::size_t>(i)]);
      const double label = validation.labels()[static_cast<std::size_t>(i)];
      if (classification) {
        bad += (pred >= 0.5) != (label >= 0.5);
      } else {
        bad += (pred - label) * (pred - label);
      }
    }
    const double mean = bad / static_cast<double>(validation.n_instances());
    return classification ? mean : std::sqrt(mean);
  };

  objective::EarlyStopper stopper(early_stopping_rounds, param.eval_freq,
                                  /*higher_is_better=*/ranking);

  GpuGbdtTrainer trainer(dev, param);
  TrainReport report =
      trainer.train(train_set, [&](int t, const std::vector<Tree>& forest) {
        const auto tree = ForestSoA::flatten({&forest.back(), 1}, 0.0);
        for (std::int64_t i = 0; i < validation.n_instances(); ++i) {
          scores[static_cast<std::size_t>(i)] +=
              tree.leaf_weight(validation.instance(i), 0);
        }
        if (!stopper.should_eval(t, param.n_trees)) return true;
        const double m = metric_now();
        history.metric.push_back(m);
        history.eval_iteration.push_back(t);
        if (stopper.record(t, m)) {
          history.stopped_early = true;
          return false;
        }
        return true;
      });
  history.best_iteration = stopper.best_iteration();

  std::vector<Tree> forest = report.trees;
  if (history.stopped_early && history.best_iteration >= 0) {
    forest.resize(static_cast<std::size_t>(history.best_iteration) + 1);
  }
  GBDTModel model(param, std::move(forest), report.base_score,
                  train_set.n_attributes());
  return {std::move(model), std::move(report), std::move(history)};
}

std::vector<double> GBDTModel::feature_importance(ImportanceKind kind) const {
  std::vector<double> score(static_cast<std::size_t>(n_attributes_), 0.0);
  for (const auto& tree : trees_) {
    for (const auto& n : tree.nodes()) {
      if (n.is_leaf()) continue;
      const auto a = static_cast<std::size_t>(n.attr);
      if (a >= score.size()) continue;
      switch (kind) {
        case ImportanceKind::kGain:
          score[a] += n.gain;
          break;
        case ImportanceKind::kCover:
          score[a] += static_cast<double>(n.n_instances);
          break;
        case ImportanceKind::kSplitCount:
          score[a] += 1.0;
          break;
      }
    }
  }
  const double total = std::accumulate(score.begin(), score.end(), 0.0);
  if (total > 0) {
    for (auto& s : score) s /= total;
  }
  return score;
}

double GBDTModel::predict_one(std::span<const data::Entry> x) const {
  return RowPredictor(trees_, base_score_).score(x);
}

std::vector<double> GBDTModel::predict(const data::Dataset& ds) const {
  const RowPredictor rows(trees_, base_score_);
  std::vector<double> out(static_cast<std::size_t>(ds.n_instances()));
  for (std::int64_t i = 0; i < ds.n_instances(); ++i) {
    out[static_cast<std::size_t>(i)] = rows.score(ds.instance(i));
  }
  return out;
}

std::vector<double> GBDTModel::predict_device(device::Device& dev,
                                              const data::Dataset& ds) const {
  return predict_on_device(dev, trees_, base_score_, ds);
}

std::vector<double> GBDTModel::transform_scores(
    std::span<const double> raw) const {
  const auto loss = make_loss(param_.loss);
  std::vector<double> out(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    out[i] = loss->transform(raw[i]);
  }
  return out;
}

void GBDTModel::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << "gpu-gbdt-model v2\n";
  out.precision(17);
  out << base_score_ << ' ' << static_cast<int>(param_.loss) << ' '
      << n_attributes_ << ' ' << trees_.size() << "\n";
  for (const auto& t : trees_) t.serialize(out);
}

GBDTModel GBDTModel::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::string magic, version;
  in >> magic >> version;
  if (magic != "gpu-gbdt-model" || version != "v2") {
    throw std::runtime_error("not a gpu-gbdt model file: " + path);
  }
  GBDTModel m;
  int loss_kind = 0;
  std::size_t n_trees = 0;
  if (!(in >> m.base_score_ >> loss_kind >> m.n_attributes_ >> n_trees) ||
      m.n_attributes_ < 0) {
    throw std::runtime_error("corrupt model header: " + path);
  }
  if (loss_kind != static_cast<int>(LossKind::kSquaredError) &&
      loss_kind != static_cast<int>(LossKind::kLogistic)) {
    throw std::runtime_error("corrupt model header (loss kind " +
                             std::to_string(loss_kind) + "): " + path);
  }
  m.param_.loss = static_cast<LossKind>(loss_kind);
  for (std::size_t t = 0; t < n_trees; ++t) {
    m.trees_.push_back(Tree::deserialize(in));
  }
  return m;
}

}  // namespace gbdt
