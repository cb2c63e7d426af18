// Case study (i) of the paper (Section IV-E): credit risk prediction, an
// online-learning setting where the model must be retrained frequently as
// transactions stream in.  The cited workload has 211,357 instances with
// 8,990 features; this example uses a scaled analog with the same shape
// (sparse, high-dimensional, binary target) and measures the retraining
// latency of GPU-GBDT against the modeled CPU baseline, then simulates a
// stream of retraining rounds with freshly arrived transactions.
#include <cstdio>
#include <cstdlib>

#include "baselines/xgb_exact.h"
#include "core/gbdt.h"
#include "core/metrics.h"
#include "data/synthetic.h"
#include "device/device_context.h"

int main(int argc, char** argv) {
  using namespace gbdt;
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.02;

  // Shape analog of the credit-risk dataset in [18]: 211,357 x 8,990,
  // sparse categorical transaction features.
  data::SyntheticSpec spec;
  spec.name = "credit-risk";
  spec.n_instances =
      std::max<std::int64_t>(512, static_cast<std::int64_t>(211357 * scale));
  spec.n_attributes = 8990;
  spec.density = 0.01;
  spec.distinct_values = 8;  // categorical transaction codes
  spec.binary_labels = true;
  spec.seed = 1234;
  const auto ds = data::generate(spec);
  std::printf("credit-risk analog: %lld x %lld (scale %.3f of the paper's "
              "211357 x 8990)\n",
              static_cast<long long>(ds.n_instances()),
              static_cast<long long>(ds.n_attributes()), scale);

  GBDTParam param;
  param.depth = 6;
  param.n_trees = 40;
  param.loss = LossKind::kLogistic;

  // One full (re)training round on the GPU vs the 40-thread CPU baseline.
  device::Device dev(device::DeviceConfig::titan_x_pascal());
  auto [model, report] = GBDTModel::train(dev, ds, param);
  baseline::XgbExactTrainer cpu(param);
  const auto cpu_report = cpu.train(ds);
  const auto cpu_cfg = device::CpuConfig::dual_xeon_e5_2640v4();

  const double gpu_s = report.modeled_seconds;
  const double cpu40_s = cpu_report.modeled_seconds(cpu_cfg, 40);
  std::printf("retrain latency (modeled): GPU-GBDT %.3f s, xgbst-40 %.3f s "
              "-> %.2fx faster response to new fraud patterns\n",
              gpu_s, cpu40_s, cpu40_s / gpu_s);
  const auto prob = model.transform_scores(report.train_scores);
  std::printf("training error: %.3f (RLE %s)\n",
              error_rate(prob, ds.labels()), report.used_rle ? "on" : "off");

  // Simulated online stream: every round brings fresh transactions; the
  // model is retrained and the per-round latency determines how quickly the
  // deployment reacts.
  const int rounds = 3;
  double total_gpu = 0.0;
  for (int r = 0; r < rounds; ++r) {
    data::SyntheticSpec fresh = spec;
    fresh.seed += static_cast<unsigned>(r + 1);
    fresh.n_instances += r * (spec.n_instances / 10);  // the log grows
    const auto batch = data::generate(fresh);
    device::Device round_dev(device::DeviceConfig::titan_x_pascal());
    GpuGbdtTrainer trainer(round_dev, param);
    const auto round_report = trainer.train(batch);
    total_gpu += round_report.modeled_seconds;
    std::printf("  round %d: %lld transactions, retrained in %.3f s "
                "(modeled)\n",
                r + 1, static_cast<long long>(batch.n_instances()),
                round_report.modeled_seconds);
  }
  std::printf("%d retraining rounds in %.3f modeled seconds total\n", rounds,
              total_gpu);
  return 0;
}
