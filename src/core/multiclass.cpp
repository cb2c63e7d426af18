#include "core/multiclass.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gbdt {

std::pair<MulticlassModel, double> MulticlassModel::train(
    device::Device& dev, const data::Dataset& ds, int n_classes,
    GBDTParam param) {
  if (n_classes < 2) throw std::invalid_argument("need >= 2 classes");
  for (float y : ds.labels()) {
    if (y < 0 || y >= static_cast<float>(n_classes) ||
        y != std::floor(y)) {
      throw std::invalid_argument("labels must be integers in [0, classes)");
    }
  }
  param.loss = LossKind::kLogistic;

  MulticlassModel model;
  double modeled = 0.0;
  for (int k = 0; k < n_classes; ++k) {
    // Re-label: class k vs rest.
    data::Dataset binary(ds.n_attributes());
    for (std::int64_t i = 0; i < ds.n_instances(); ++i) {
      const bool is_k =
          ds.labels()[static_cast<std::size_t>(i)] == static_cast<float>(k);
      binary.add_instance(ds.instance(i), is_k ? 1.f : 0.f);
    }
    auto [m, report] = GBDTModel::train(dev, binary, param);
    modeled += report.modeled_seconds;
    model.per_class_.push_back(std::move(m));
  }
  return {std::move(model), modeled};
}

std::vector<std::vector<double>> MulticlassModel::predict_proba(
    const data::Dataset& ds) const {
  const auto n = static_cast<std::size_t>(ds.n_instances());
  std::vector<std::vector<double>> proba(
      n, std::vector<double>(per_class_.size(), 0.0));
  for (std::size_t k = 0; k < per_class_.size(); ++k) {
    const auto raw = per_class_[k].predict(ds);
    const auto p = per_class_[k].transform_scores(raw);
    for (std::size_t i = 0; i < n; ++i) proba[i][k] = p[i];
  }
  // Normalise the independent sigmoid outputs into a distribution.
  for (auto& row : proba) {
    double total = 0.0;
    for (double v : row) total += v;
    if (total > 0) {
      for (double& v : row) v /= total;
    }
  }
  return proba;
}

std::vector<int> MulticlassModel::predict_class(
    const data::Dataset& ds) const {
  const auto proba = predict_proba(ds);
  std::vector<int> out(proba.size());
  for (std::size_t i = 0; i < proba.size(); ++i) {
    out[i] = static_cast<int>(
        std::max_element(proba[i].begin(), proba[i].end()) -
        proba[i].begin());
  }
  return out;
}

double MulticlassModel::error_rate(const data::Dataset& ds) const {
  const auto pred = predict_class(ds);
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    wrong += static_cast<float>(pred[i]) != ds.labels()[i];
  }
  return pred.empty() ? 0.0
                      : static_cast<double>(wrong) /
                            static_cast<double>(pred.size());
}

void MulticlassModel::save(const std::string& path_prefix) const {
  for (std::size_t k = 0; k < per_class_.size(); ++k) {
    per_class_[k].save(path_prefix + ".class" + std::to_string(k));
  }
}

MulticlassModel MulticlassModel::load(const std::string& path_prefix,
                                      int n_classes) {
  MulticlassModel m;
  for (int k = 0; k < n_classes; ++k) {
    m.per_class_.push_back(
        GBDTModel::load(path_prefix + ".class" + std::to_string(k)));
  }
  return m;
}

}  // namespace gbdt
