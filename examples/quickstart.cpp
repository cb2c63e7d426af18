// Quickstart: train a GPU-GBDT model on a synthetic regression dataset,
// inspect the report, predict, and save/load the model.
//
//   ./examples/quickstart [n_instances] [n_attributes]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/gbdt.h"
#include "core/metrics.h"
#include "data/synthetic.h"
#include "device/device_context.h"
#include "obs/trace.h"

int main(int argc, char** argv) {
  using namespace gbdt;

  // 1. Make (or load) a dataset.  read_libsvm_file() loads LibSVM text; here
  //    we generate a synthetic regression problem.
  data::SyntheticSpec spec;
  spec.name = "quickstart";
  spec.n_instances = argc > 1 ? std::atoll(argv[1]) : 5000;
  spec.n_attributes = argc > 2 ? std::atoll(argv[2]) : 20;
  spec.density = 0.8;
  spec.label_noise = 0.1;
  const auto dataset = data::generate(spec);
  const auto [train, test] = dataset.split_at(dataset.n_instances() * 4 / 5);
  std::printf("dataset: %lld instances x %lld attributes (density %.2f)\n",
              static_cast<long long>(dataset.n_instances()),
              static_cast<long long>(dataset.n_attributes()),
              dataset.density());

  // 2. Pick a simulated device and hyper-parameters.
  device::Device dev(device::DeviceConfig::titan_x_pascal());
  GBDTParam param;
  param.depth = 6;     // d in the paper
  param.n_trees = 40;  // T in the paper
  param.eta = 0.3;
  param.lambda = 1.0;

  // 3. Train, tracing where the modeled device time goes: while an
  //    ObsSession is active, the trainer's phase spans collect it.
  obs::ObsSession session;
  session.activate();
  auto [model, report] = GBDTModel::train(dev, train, param);
  session.deactivate();
  std::printf("trained %zu trees  (RLE: %s, ratio %.2f)\n",
              model.trees().size(), report.used_rle ? "on" : "off",
              report.rle_ratio);
  std::printf("modeled device time: %.4f s\n", report.modeled_seconds);
  if (const obs::Span* train_span = session.root().child("train")) {
    for (const auto& phase : train_span->children()) {
      std::printf("  %-18s %.4f s\n", phase->name().c_str(),
                  phase->modeled_total_seconds());
    }
  }
  std::printf("peak device memory: %.1f MiB, wall clock: %.2f s\n",
              static_cast<double>(report.peak_device_bytes) / (1 << 20),
              report.wall_seconds);

  // 4. Evaluate.
  const double train_rmse = rmse(report.train_scores, train.labels());
  const auto test_pred = model.predict(test);
  const double test_rmse = rmse(test_pred, test.labels());
  std::printf("train RMSE: %.4f   test RMSE: %.4f\n", train_rmse, test_rmse);

  // 5. Persist and reload.
  model.save("/tmp/quickstart_model.txt");
  const auto reloaded = GBDTModel::load("/tmp/quickstart_model.txt");
  std::printf("model round-trips through /tmp/quickstart_model.txt (%zu "
              "trees)\n",
              reloaded.trees().size());

  // 6. Device-side batch prediction (the paper's Section III-D kernel).
  const auto device_pred = model.predict_device(dev, test);
  double max_diff = 0;
  for (std::size_t i = 0; i < device_pred.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(device_pred[i] - test_pred[i]));
  }
  std::printf("device prediction of %zu test instances matches host "
              "(max |diff| = %.2e)\n",
              device_pred.size(), max_diff);
  return 0;
}
