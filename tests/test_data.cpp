// Tests for the data substrate: sparse dataset container, CSC attribute
// lists (host and device builds must agree exactly), dense matrix fill,
// LibSVM round trips, synthetic generator statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/csc_matrix.h"
#include "data/dataset.h"
#include "data/libsvm_io.h"
#include "data/synthetic.h"
#include "device/device_context.h"

namespace gbdt::data {
namespace {

using device::Device;
using device::DeviceConfig;

/// The running example of paper Table I: 4 instances, 4 attributes.
Dataset paper_table1() {
  Dataset ds(4);
  const std::vector<std::vector<Entry>> rows = {
      {{2, 0.1f}},
      {{0, 1.2f}, {2, 0.1f}, {3, 0.6f}},
      {{0, 0.5f}, {1, 1.0f}},
      {{0, 1.2f}, {2, 2.0f}},
  };
  const std::vector<float> labels = {0.f, 1.f, 0.f, 1.f};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ds.add_instance(rows[i], labels[i]);
  }
  return ds;
}

TEST(Dataset, BasicAccessors) {
  const auto ds = paper_table1();
  EXPECT_EQ(ds.n_instances(), 4);
  EXPECT_EQ(ds.n_attributes(), 4);
  EXPECT_EQ(ds.n_entries(), 8);
  EXPECT_DOUBLE_EQ(ds.density(), 8.0 / 16.0);
  ASSERT_EQ(ds.instance(1).size(), 3u);
  EXPECT_EQ(ds.instance(1)[2].attr, 3);
  EXPECT_FLOAT_EQ(ds.instance(1)[2].value, 0.6f);
  EXPECT_EQ(ds.instance(0).size(), 1u);
}

TEST(Dataset, MemoryFootprints) {
  const auto ds = paper_table1();
  EXPECT_EQ(ds.dense_bytes(), 16 * sizeof(float) + 4 * sizeof(float));
  EXPECT_LT(ds.sparse_bytes(), ds.dense_bytes() * 4);  // sanity only
  EXPECT_GT(ds.sparse_bytes(), 0u);
}

TEST(Dataset, SplitAtPreservesInstances) {
  const auto ds = paper_table1();
  const auto [a, b] = ds.split_at(3);
  EXPECT_EQ(a.n_instances(), 3);
  EXPECT_EQ(b.n_instances(), 1);
  EXPECT_EQ(b.instance(0).size(), 2u);
  EXPECT_EQ(b.labels()[0], 1.f);
  EXPECT_EQ(a.n_attributes(), 4);
}

// Replayable malformed rows: an unsorted row and attribute 40000 in a
// 2-attribute dataset would make the CSC build index its per-attribute
// counters out of bounds.  Every build (Release included) rejects such a row
// and leaves the dataset unchanged.
TEST(Dataset, AddInstanceRejectsMalformedRows) {
  Dataset ds(2);
  ds.add_instance(std::vector<Entry>{{0, 1.f}, {1, 2.f}}, 1.f);
  const auto rejects = [&ds](std::vector<Entry> row, float label,
                             const char* what) {
    try {
      ds.add_instance(row, label);
      ADD_FAILURE() << "accepted a row with " << what;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("row 1"), std::string::npos)
          << e.what();
    }
  };
  rejects({{1, 1.f}, {0, 2.f}}, 0.f, "unsorted attributes");
  rejects({{0, 1.f}, {0, 2.f}}, 0.f, "a duplicate attribute");
  rejects({{0, 1.f}, {40000, 2.f}}, 0.f, "an attribute past n_attributes");
  rejects({{-1, 1.f}}, 0.f, "a negative attribute");
  rejects({{0, 1.f}}, std::nanf(""), "a NaN label");
  rejects({}, INFINITY, "an infinite label");
  // Non-finite feature values name the row and the attribute.
  for (const float bad : {std::nanf(""), INFINITY, -INFINITY}) {
    try {
      ds.add_instance(std::vector<Entry>{{0, 1.f}, {1, bad}}, 0.f);
      ADD_FAILURE() << "accepted a feature value of " << bad;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("row 1"), std::string::npos) << what;
      EXPECT_NE(what.find("attribute 1"), std::string::npos) << what;
    }
  }
  EXPECT_EQ(ds.n_instances(), 1);
  EXPECT_EQ(ds.n_entries(), 2);
  ds.add_instance(std::vector<Entry>{{1, 3.f}}, 0.f);
  EXPECT_EQ(ds.n_instances(), 2);
}

/// Attribute sets of every row shape the window lookup must handle over
/// `d` attributes: full, first or last missing, a missing run, empty, each
/// single entry, and random subsets.
std::vector<std::vector<std::int32_t>> row_shapes(std::int32_t d,
                                                  std::mt19937& rng) {
  std::vector<std::int32_t> all(static_cast<std::size_t>(d));
  for (std::int32_t a = 0; a < d; ++a) all[static_cast<std::size_t>(a)] = a;
  std::vector<std::vector<std::int32_t>> rows = {all, {}};
  rows.emplace_back(all.begin() + 1, all.end());
  rows.emplace_back(all.begin(), all.end() - 1);
  for (std::int32_t a = 0; a < d; ++a) rows.push_back({a});
  for (std::int32_t lo = 0; lo < d; lo += 3) {
    for (const std::int32_t run : {1, 2, d / 2}) {
      std::vector<std::int32_t> r;
      for (std::int32_t a = 0; a < d; ++a) {
        if (a < lo || a >= lo + run) r.push_back(a);
      }
      rows.push_back(r);
    }
  }
  for (const double keep : {0.1, 0.5, 0.9}) {
    for (int k = 0; k < 8; ++k) {
      std::vector<std::int32_t> r;
      for (std::int32_t a = 0; a < d; ++a) {
        if (std::uniform_real_distribution<double>(0, 1)(rng) < keep) {
          r.push_back(a);
        }
      }
      rows.push_back(r);
    }
  }
  return rows;
}

TEST(FindInRow, WindowLookupAgreesWithLowerBoundOnEveryRowShape) {
  std::mt19937 rng(7);
  for (const std::int32_t d : {1, 2, 5, 28, 64}) {
    for (const std::int64_t n_bins : {1, 7}) {
      // Every row in one key stream, so rows start past position 0; key =
      // attribute * n_bins + a bin.
      const auto shapes = row_shapes(d, rng);
      std::vector<std::uint32_t> keys;
      std::vector<std::int64_t> offsets = {0};
      for (const auto& r : shapes) {
        for (const std::int32_t a : r) {
          keys.push_back(static_cast<std::uint32_t>(
              a * n_bins + static_cast<std::int64_t>(rng() % n_bins)));
        }
        offsets.push_back(static_cast<std::int64_t>(keys.size()));
      }
      const std::span<const std::uint32_t> view(keys);
      for (std::size_t i = 0; i < shapes.size(); ++i) {
        const auto& attrs = shapes[i];
        const std::int64_t lo = offsets[i];
        const std::int64_t hi = offsets[i + 1];
        for (std::int32_t a = 0; a < d + 2; ++a) {
          SCOPED_TRACE("d " + std::to_string(d) + ", bins " +
                       std::to_string(n_bins) + ", row " + std::to_string(i) +
                       ", attribute " + std::to_string(a));
          const auto it = std::lower_bound(attrs.begin(), attrs.end(), a);
          const std::int64_t want = lo + (it - attrs.begin());
          const bool present = it != attrs.end() && *it == a;
          const RowHit hit = find_in_row(view, lo, hi, d, a, n_bins);
          EXPECT_EQ(hit.found, present);
          EXPECT_EQ(hit.pos, want);
          if (a >= d) {
            EXPECT_EQ(hit.probes, 0u) << "no row holds an attribute past d";
          } else if (hi - lo == d) {
            EXPECT_EQ(hit.probes, 1u) << "a full row costs one probe";
          }
        }
      }
    }
  }
}

TEST(CscHost, MatchesPaperSortedLists) {
  // Section II-A sorted attribute lists:
  //   a1: (x2,1.2) (x4,1.2) (x3,0.5)   a2: (x3,1.0)
  //   a3: (x4,2.0) (x2,0.1) (x1,0.1)   a4: (x2,0.6)
  const auto csc = build_csc_host(paper_table1());
  ASSERT_EQ(csc.n_entries(), 8);
  const std::vector<std::int64_t> want_offs{0, 3, 4, 7, 8};
  EXPECT_EQ(csc.col_offsets, want_offs);
  const std::vector<float> want_vals{1.2f, 1.2f, 0.5f, 1.0f,
                                     2.0f, 0.1f, 0.1f, 0.6f};
  const std::vector<std::int32_t> want_ids{1, 3, 2, 2, 3, 0, 1, 1};
  EXPECT_EQ(csc.values, want_vals);
  EXPECT_EQ(csc.inst_ids, want_ids);
}

TEST(CscDevice, AgreesWithHostBuild) {
  for (unsigned seed : {1u, 2u, 3u}) {
    SyntheticSpec spec;
    spec.n_instances = 500;
    spec.n_attributes = 40;
    spec.density = 0.3;
    spec.distinct_values = 6;  // ties exercise stable ordering
    spec.seed = seed;
    const auto ds = generate(spec);
    const auto host = build_csc_host(ds);

    Device dev(DeviceConfig::titan_x_pascal());
    const auto on_dev = build_csc_device(dev, ds);
    ASSERT_EQ(on_dev.values.size(), host.values.size());
    for (std::size_t i = 0; i < host.values.size(); ++i) {
      ASSERT_EQ(on_dev.values[i], host.values[i]) << i;
      ASSERT_EQ(on_dev.inst_ids[i], host.inst_ids[i]) << i;
    }
    for (std::size_t a = 0; a < host.col_offsets.size(); ++a) {
      ASSERT_EQ(on_dev.col_offsets[a], host.col_offsets[a]) << a;
    }
    // The build must have moved the entries over the modeled PCI-e link.
    EXPECT_GT(dev.timeline().bytes_to_device, 0u);
  }
}

TEST(CscDevice, ColumnsSortedDescendingWithStableTies) {
  SyntheticSpec spec;
  spec.n_instances = 300;
  spec.n_attributes = 10;
  spec.density = 0.5;
  spec.distinct_values = 3;
  const auto ds = generate(spec);
  Device dev(DeviceConfig::titan_x_pascal());
  const auto csc = build_csc_device(dev, ds);
  for (std::int64_t a = 0; a < csc.n_attributes; ++a) {
    for (std::int64_t e = csc.col_offsets[static_cast<std::size_t>(a)] + 1;
         e < csc.col_offsets[static_cast<std::size_t>(a) + 1]; ++e) {
      const auto u = static_cast<std::size_t>(e);
      ASSERT_GE(csc.values[u - 1], csc.values[u]);
      if (csc.values[u - 1] == csc.values[u]) {
        ASSERT_LT(csc.inst_ids[u - 1], csc.inst_ids[u]);  // stable ties
      }
    }
  }
}

TEST(LibsvmIo, ParsesBasicFile) {
  std::istringstream in(
      "1.5 1:0.5 3:2.25\n"
      "-1 2:1\n"
      "0  # a comment-only payload\n");
  const auto ds = read_libsvm(in);
  EXPECT_EQ(ds.n_instances(), 3);
  EXPECT_EQ(ds.n_attributes(), 3);
  EXPECT_FLOAT_EQ(ds.labels()[0], 1.5f);
  ASSERT_EQ(ds.instance(0).size(), 2u);
  EXPECT_EQ(ds.instance(0)[1].attr, 2);  // 1-based "3" -> 0-based 2
  EXPECT_FLOAT_EQ(ds.instance(0)[1].value, 2.25f);
  EXPECT_EQ(ds.instance(2).size(), 0u);
}

TEST(LibsvmIo, RejectsMalformedInput) {
  {
    std::istringstream in("1 2.5\n");
    EXPECT_THROW((void)read_libsvm(in), std::runtime_error);
  }
  {
    std::istringstream in("1 0:1\n");  // index must be >= 1
    EXPECT_THROW((void)read_libsvm(in), std::runtime_error);
  }
  {
    std::istringstream in("1 3:1 2:1\n");  // not increasing
    EXPECT_THROW((void)read_libsvm(in), std::runtime_error);
  }
  {
    std::istringstream in("1 2:abc\n");
    EXPECT_THROW((void)read_libsvm(in), std::runtime_error);
  }
  // Indices past 2^31, values or labels with trailing text, and non-finite
  // labels or feature values (NaN aside: it is a missing entry) are errors
  // that name the line.
  for (const char* text : {"1 2147483649:1\n", "1 4294967297:1\n",
                           "1 3:0.5abc\n", "1 3:+-1\n", "1 3:\n",
                           "abc 1:2\n", "1x 1:2\n", "nan 1:2\n",
                           "inf 1:2\n", "-inf\n", "1 2:inf\n",
                           "1 1:0.5 2:-inf\n", "1 2:+inf\n"}) {
    std::istringstream in(std::string("0 1:1\n") + text);
    try {
      (void)read_libsvm(in);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
}

TEST(LibsvmIo, NanValueIsMissingAndPlusSignParses) {
  std::istringstream in(
      "+1 1:nan 2:+0.5\n"
      "2 1:NaN\n");
  const auto ds = read_libsvm(in);
  ASSERT_EQ(ds.n_instances(), 2);
  EXPECT_EQ(ds.n_attributes(), 2);
  EXPECT_FLOAT_EQ(ds.labels()[0], 1.f);
  ASSERT_EQ(ds.instance(0).size(), 1u);
  EXPECT_EQ(ds.instance(0)[0].attr, 1);
  EXPECT_FLOAT_EQ(ds.instance(0)[0].value, 0.5f);
  EXPECT_EQ(ds.instance(1).size(), 0u);
}

TEST(LibsvmIo, RoundTrips) {
  SyntheticSpec spec;
  spec.n_instances = 200;
  spec.n_attributes = 30;
  spec.density = 0.4;
  const auto ds = generate(spec);
  std::stringstream buf;
  write_libsvm(ds, buf);
  const auto back = read_libsvm(buf);
  ASSERT_EQ(back.n_instances(), ds.n_instances());
  // Width can shrink if the last attribute never appears; entries must match.
  for (std::int64_t i = 0; i < ds.n_instances(); ++i) {
    const auto a = ds.instance(i);
    const auto b = back.instance(i);
    ASSERT_EQ(a.size(), b.size()) << i;
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].attr, b[k].attr);
      EXPECT_FLOAT_EQ(a[k].value, b[k].value);
    }
    EXPECT_FLOAT_EQ(ds.labels()[static_cast<std::size_t>(i)],
                    back.labels()[static_cast<std::size_t>(i)]);
  }
}

TEST(Synthetic, RespectsShapeParameters) {
  SyntheticSpec spec;
  spec.n_instances = 2000;
  spec.n_attributes = 100;
  spec.density = 0.25;
  spec.seed = 9;
  const auto ds = generate(spec);
  EXPECT_EQ(ds.n_instances(), 2000);
  EXPECT_EQ(ds.n_attributes(), 100);
  EXPECT_NEAR(ds.density(), 0.25, 0.02);
}

TEST(Synthetic, DistinctValuesBoundsCardinality) {
  SyntheticSpec spec;
  spec.n_instances = 3000;
  spec.n_attributes = 5;
  spec.distinct_values = 4;
  const auto ds = generate(spec);
  std::map<std::int32_t, std::map<float, int>> per_attr;
  for (std::int64_t i = 0; i < ds.n_instances(); ++i) {
    for (const auto& e : ds.instance(i)) ++per_attr[e.attr][e.value];
  }
  for (const auto& [attr, vals] : per_attr) {
    EXPECT_LE(vals.size(), 4u) << attr;
  }
}

TEST(Synthetic, DeterministicPerSeed) {
  SyntheticSpec spec;
  spec.n_instances = 100;
  spec.n_attributes = 10;
  spec.density = 0.5;
  const auto a = generate(spec);
  const auto b = generate(spec);
  EXPECT_EQ(a.entries(), b.entries());
  spec.seed += 1;
  const auto c = generate(spec);
  EXPECT_NE(a.entries(), c.entries());
}

TEST(Synthetic, BinaryLabelsAreBinary) {
  SyntheticSpec spec;
  spec.n_instances = 500;
  spec.n_attributes = 10;
  spec.binary_labels = true;
  const auto ds = generate(spec);
  int ones = 0;
  for (float y : ds.labels()) {
    ASSERT_TRUE(y == 0.f || y == 1.f);
    ones += y == 1.f;
  }
  // Both classes occur.
  EXPECT_GT(ones, 50);
  EXPECT_LT(ones, 450);
}

TEST(Synthetic, RejectsBadSpecs) {
  SyntheticSpec spec;
  spec.n_instances = 0;
  EXPECT_THROW((void)generate(spec), std::invalid_argument);
  spec.n_instances = 10;
  spec.density = 0.0;
  EXPECT_THROW((void)generate(spec), std::invalid_argument);
  spec.density = 1.5;
  EXPECT_THROW((void)generate(spec), std::invalid_argument);
}

TEST(PaperRegistry, HasEightDatasetsInPaperRegimes) {
  const auto all = paper_datasets(0.1);
  ASSERT_EQ(all.size(), 8u);
  const auto& news = paper_dataset("news20", 0.1);
  EXPECT_GT(news.spec.n_attributes, 10000);  // high-dimensional regime
  EXPECT_LT(news.spec.density, 0.01);
  EXPECT_GT(news.spec.distinct_values, 0);   // RLE-compressible
  const auto& susy = paper_dataset("susy", 0.1);
  EXPECT_LT(susy.spec.n_attributes, 30);     // dense low-dim regime
  EXPECT_GT(susy.spec.density, 0.9);
  EXPECT_FALSE(susy.paper_xgb_gpu_fails);    // the one dataset xgbst-gpu ran
  EXPECT_TRUE(news.paper_xgb_gpu_fails);
  EXPECT_THROW((void)paper_dataset("nope"), std::out_of_range);
}

TEST(PaperRegistry, ScaleControlsCardinality) {
  const auto big = paper_dataset("higgs", 1.0);
  const auto small = paper_dataset("higgs", 0.01);
  EXPECT_EQ(big.spec.n_attributes, small.spec.n_attributes);
  EXPECT_GT(big.spec.n_instances, 10 * small.spec.n_instances);
  EXPECT_THROW((void)paper_datasets(0.0), std::invalid_argument);
}

}  // namespace
}  // namespace gbdt::data
