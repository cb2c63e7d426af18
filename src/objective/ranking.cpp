#include "objective/ranking.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "primitives/transform.h"

namespace gbdt::objective {

using device::BlockCtx;
using prim::kBlockDim;

RankingObjective::RankingObjective(device::Device& dev,
                                   const GBDTParam& param,
                                   const data::Dataset& ds)
    : dev_(dev), ndcg_k_(param.ndcg_k) {
  if (!ds.has_queries()) {
    throw std::invalid_argument(
        "ranking objective needs query groups on the dataset "
        "(--query-file or Dataset::set_query_offsets)");
  }
  if (ndcg_k_ < 1) throw std::invalid_argument("ndcg_k must be >= 1");
  const auto& offs = ds.query_offsets();
  if (offs.front() != 0 || offs.back() != ds.n_instances()) {
    throw std::invalid_argument("query offsets must cover [0, n_instances)");
  }
  for (std::size_t q = 1; q < offs.size(); ++q) {
    if (offs[q] <= offs[q - 1]) {
      throw std::invalid_argument("query offsets must be strictly increasing");
    }
  }
  n_queries_ = ds.n_queries();
  d_query_offsets_ = dev_.to_device<std::int64_t>(offs);
}

void RankingObjective::gradients(detail::TrainState& st,
                                 const device::DeviceBuffer<float>& labels) {
  const std::int64_t nq = n_queries_;
  const int k = ndcg_k_;
  auto qo = d_query_offsets_.span();
  auto y = labels.span();
  auto p = st.y_pred.span();
  auto gh = st.gh.span();
  constexpr double kSigma = 1.0;
  st.dev.launch(
      "obj_lambda_gradients", device::grid_for(nq, kBlockDim), kBlockDim,
      [&](BlockCtx& b) {
        std::uint64_t pair_ops = 0;
        std::uint64_t docs = 0;
        b.for_each_thread([&](std::int64_t q) {
          if (q >= nq) return;
          const std::int64_t lo = qo[static_cast<std::size_t>(q)];
          const std::int64_t hi = qo[static_cast<std::size_t>(q) + 1];
          const std::int64_t m = hi - lo;
          b.reads(qo, q, 2);
          for (std::int64_t i = lo; i < hi; ++i) {
            const auto u = static_cast<std::size_t>(i);
            gh[u] = detail::GHPair{};
          }
          // Queries partition the rows, so the scattered (g, h) writes of
          // distinct threads/blocks never alias.  block-disjoint: each
          // query's [lo, hi) range belongs to exactly one thread.
          b.reads(y, lo, m);
          b.reads(p, lo, m);
          b.writes(gh, lo, m);
          docs += static_cast<std::uint64_t>(m);
          if (m < 2) return;

          // Positions under the current scores (descending; ties broken by
          // the lower document index, deterministically).
          std::vector<std::int64_t> order(static_cast<std::size_t>(m));
          std::iota(order.begin(), order.end(), lo);
          std::sort(order.begin(), order.end(),
                    [&](std::int64_t a, std::int64_t c) {
                      const auto au = static_cast<std::size_t>(a);
                      const auto cu = static_cast<std::size_t>(c);
                      if (p[au] != p[cu]) return p[au] > p[cu];
                      return a < c;
                    });
          std::vector<double> disc(static_cast<std::size_t>(m), 0.0);
          for (std::int64_t r = 0; r < m; ++r) {
            const auto doc =
                static_cast<std::size_t>(order[static_cast<std::size_t>(r)] -
                                         lo);
            disc[doc] = r < k ? 1.0 / std::log2(static_cast<double>(r) + 2.0)
                              : 0.0;
          }
          // Ideal DCG@k from the labels sorted descending.
          std::vector<double> gains(static_cast<std::size_t>(m));
          for (std::int64_t i = 0; i < m; ++i) {
            gains[static_cast<std::size_t>(i)] =
                std::exp2(static_cast<double>(
                    y[static_cast<std::size_t>(lo + i)])) -
                1.0;
          }
          std::vector<double> ideal = gains;
          std::sort(ideal.begin(), ideal.end(), std::greater<>());
          double idcg = 0.0;
          for (std::int64_t r = 0; r < std::min<std::int64_t>(m, k); ++r) {
            idcg += ideal[static_cast<std::size_t>(r)] /
                    std::log2(static_cast<double>(r) + 2.0);
          }
          if (!(idcg > 0.0)) return;  // all-zero gains: no preference pairs

          for (std::int64_t i = 0; i < m; ++i) {
            for (std::int64_t j = i + 1; j < m; ++j) {
              const auto iu = static_cast<std::size_t>(i);
              const auto ju = static_cast<std::size_t>(j);
              if (gains[iu] == gains[ju]) continue;
              const bool i_high = gains[iu] > gains[ju];
              const auto hu =
                  static_cast<std::size_t>(lo + (i_high ? i : j));
              const auto lu =
                  static_cast<std::size_t>(lo + (i_high ? j : i));
              const double dndcg =
                  std::abs(gains[iu] - gains[ju]) *
                  std::abs(disc[iu] - disc[ju]) / idcg;
              if (dndcg == 0.0) continue;  // both outside the top-k cutoff
              const double rho =
                  1.0 / (1.0 + std::exp(kSigma * (static_cast<double>(p[hu]) -
                                                  static_cast<double>(p[lu]))));
              const double lam = kSigma * rho * dndcg;
              gh[hu].g -= lam;
              gh[lu].g += lam;
              const double w = kSigma * kSigma * rho * (1.0 - rho) * dndcg;
              gh[hu].h += w;
              gh[lu].h += w;
              pair_ops += 1;
            }
          }
        });
        // Sort + all-pairs sweep per query; gathers of (y, p) are coalesced
        // within a query's contiguous range, pair updates hit the same
        // cached range repeatedly.
        b.work(docs * 8 + pair_ops * 4);
        b.flop(docs * 6 + pair_ops * 12);
        b.mem_coalesced(docs * 24);
        b.mem_irregular(pair_ops / 4 + 1);
      });
}

}  // namespace gbdt::objective
