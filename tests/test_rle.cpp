// Tests for the RLE substrate: compression round trips against serial
// references, segment-boundary behaviour, ratio estimation, the paper's
// running example from Figure 4.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <random>
#include <vector>

#include "device/device_context.h"
#include "primitives/transform.h"
#include "rle/rle.h"

namespace gbdt::rle {
namespace {

using device::Device;
using device::DeviceConfig;

struct HostRle {
  std::vector<float> values;
  std::vector<std::int64_t> starts;
  std::vector<std::int64_t> seg_offsets;
};

/// Serial reference compressor.
HostRle reference_compress(const std::vector<float>& v,
                           const std::vector<std::int64_t>& offs) {
  HostRle out;
  out.seg_offsets.resize(offs.size());
  for (std::size_t s = 0; s + 1 < offs.size(); ++s) {
    out.seg_offsets[s] = static_cast<std::int64_t>(out.values.size());
    for (std::int64_t e = offs[s]; e < offs[s + 1]; ++e) {
      if (e == offs[s] || v[static_cast<std::size_t>(e)] !=
                              v[static_cast<std::size_t>(e - 1)]) {
        out.values.push_back(v[static_cast<std::size_t>(e)]);
        out.starts.push_back(e);
      }
    }
  }
  out.seg_offsets.back() = static_cast<std::int64_t>(out.values.size());
  out.starts.push_back(offs.back());
  return out;
}

void expect_equal(const DeviceRle& got, const HostRle& want) {
  ASSERT_EQ(got.n_runs, static_cast<std::int64_t>(want.values.size()));
  for (std::size_t r = 0; r < want.values.size(); ++r) {
    ASSERT_EQ(got.values[r], want.values[r]) << "run " << r;
    ASSERT_EQ(got.starts[r], want.starts[r]) << "run " << r;
  }
  ASSERT_EQ(got.starts[static_cast<std::size_t>(got.n_runs)],
            want.starts.back());
  ASSERT_EQ(got.seg_offsets.size(), want.seg_offsets.size());
  for (std::size_t s = 0; s < want.seg_offsets.size(); ++s) {
    ASSERT_EQ(got.seg_offsets[s], want.seg_offsets[s]) << "seg " << s;
  }
}

TEST(Rle, PaperFigure4Example) {
  // "Given a sequence of values 1.2, 1.2, 1.2, 3.4, 3.4, 3.4, 3.4, RLE
  //  represents the sequence using value-and-length pairs (1.2,3), (3.4,4)."
  Device dev(DeviceConfig::titan_x_pascal());
  std::vector<float> v{1.2f, 1.2f, 1.2f, 3.4f, 3.4f, 3.4f, 3.4f};
  std::vector<std::int64_t> offs{0, 7};
  auto d_v = dev.to_device<float>(v);
  auto d_o = dev.to_device<std::int64_t>(offs);
  const auto rle = compress(dev, d_v.span(), d_o.span());
  ASSERT_EQ(rle.n_runs, 2);
  EXPECT_EQ(rle.values[0], 1.2f);
  EXPECT_EQ(rle.run_length(0), 3);
  EXPECT_EQ(rle.values[1], 3.4f);
  EXPECT_EQ(rle.run_length(1), 4);
  EXPECT_DOUBLE_EQ(measured_ratio(rle), 7.0 / 2.0);
}

TEST(Rle, RunsNeverCrossSegmentBoundaries) {
  Device dev(DeviceConfig::titan_x_pascal());
  // Same value 5.0 straddles the boundary between segments 0 and 1 — it must
  // become two runs.
  std::vector<float> v{5.f, 5.f, 5.f, 5.f};
  std::vector<std::int64_t> offs{0, 2, 4};
  auto d_v = dev.to_device<float>(v);
  auto d_o = dev.to_device<std::int64_t>(offs);
  const auto rle = compress(dev, d_v.span(), d_o.span());
  ASSERT_EQ(rle.n_runs, 2);
  EXPECT_EQ(rle.run_length(0), 2);
  EXPECT_EQ(rle.run_length(1), 2);
  EXPECT_EQ(rle.seg_offsets[0], 0);
  EXPECT_EQ(rle.seg_offsets[1], 1);
  EXPECT_EQ(rle.seg_offsets[2], 2);
}

TEST(Rle, EmptySegmentsGetEmptyRunRanges) {
  Device dev(DeviceConfig::titan_x_pascal());
  std::vector<float> v{1.f, 1.f, 2.f};
  std::vector<std::int64_t> offs{0, 0, 2, 2, 3, 3};
  auto d_v = dev.to_device<float>(v);
  auto d_o = dev.to_device<std::int64_t>(offs);
  const auto rle = compress(dev, d_v.span(), d_o.span());
  ASSERT_EQ(rle.n_runs, 2);
  EXPECT_EQ(rle.seg_offsets[0], 0);  // empty
  EXPECT_EQ(rle.seg_offsets[1], 0);
  EXPECT_EQ(rle.seg_offsets[2], 1);  // empty
  EXPECT_EQ(rle.seg_offsets[3], 1);
  EXPECT_EQ(rle.seg_offsets[4], 2);  // empty (trailing)
  EXPECT_EQ(rle.seg_offsets[5], 2);
}

TEST(Rle, EmptyInput) {
  Device dev(DeviceConfig::titan_x_pascal());
  auto d_v = dev.alloc<float>(0);
  std::vector<std::int64_t> offs{0, 0, 0};
  auto d_o = dev.to_device<std::int64_t>(offs);
  const auto rle = compress(dev, d_v.span(), d_o.span());
  EXPECT_EQ(rle.n_runs, 0);
  EXPECT_EQ(rle.seg_offsets[2], 0);
  EXPECT_DOUBLE_EQ(measured_ratio(rle), 1.0);
}

struct RleCase {
  std::int64_t n;
  std::int32_t distinct;  // values drawn from this many; smaller = longer runs
  std::int32_t seg_len;   // average segment length
  std::uint64_t seed;
};

// Names each case (its test id suffix and `GetParam() =` note), e.g.
// `n1000_distinct3_seg50`, where gtest would print the struct's bytes.
void PrintTo(const RleCase& c, std::ostream* os) {
  *os << "n" << c.n << "_distinct" << c.distinct << "_seg" << c.seg_len;
}

class RleRoundTrip : public ::testing::TestWithParam<RleCase> {};

TEST_P(RleRoundTrip, CompressMatchesReferenceAndDecompressRestores) {
  const auto p = GetParam();
  Device dev(DeviceConfig::titan_x_pascal());
  std::mt19937 rng(p.seed);

  std::vector<std::int64_t> offs{0};
  while (offs.back() < p.n) {
    offs.push_back(std::min<std::int64_t>(
        p.n, offs.back() + static_cast<std::int64_t>(rng() % (2 * p.seg_len))));
  }
  if (offs.back() != p.n) offs.push_back(p.n);

  // Sorted-descending values inside each segment (the trainer's invariant).
  std::vector<float> v(static_cast<std::size_t>(p.n));
  for (std::size_t s = 0; s + 1 < offs.size(); ++s) {
    std::vector<float> seg;
    for (std::int64_t e = offs[s]; e < offs[s + 1]; ++e) {
      seg.push_back(static_cast<float>(rng() % static_cast<unsigned>(p.distinct)));
    }
    std::sort(seg.rbegin(), seg.rend());
    std::copy(seg.begin(), seg.end(),
              v.begin() + static_cast<std::ptrdiff_t>(offs[s]));
  }

  auto d_v = dev.to_device<float>(v);
  auto d_o = dev.to_device<std::int64_t>(offs);
  const auto rle = compress(dev, d_v.span(), d_o.span());
  expect_equal(rle, reference_compress(v, offs));

  auto restored = dev.alloc<float>(static_cast<std::size_t>(p.n));
  decompress(dev, rle, restored);
  for (std::size_t i = 0; i < v.size(); ++i) ASSERT_EQ(restored[i], v[i]) << i;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RleRoundTrip,
    ::testing::Values(RleCase{1, 1, 1, 1}, RleCase{1000, 3, 50, 2},
                      RleCase{1000, 1000, 50, 3},  // nearly incompressible
                      RleCase{10000, 2, 500, 4},   // highly compressible
                      RleCase{10000, 16, 7, 5},    // tiny segments
                      RleCase{257, 4, 256, 6}));

TEST(Rle, CompressionReducesMemoryForRepetitiveData) {
  Device dev(DeviceConfig::titan_x_pascal());
  const std::int64_t n = 100000;
  std::vector<float> v(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = static_cast<float>(i / 1000);  // runs of 1000
  }
  std::vector<std::int64_t> offs{0, n};
  auto d_v = dev.to_device<float>(v);
  auto d_o = dev.to_device<std::int64_t>(offs);
  const auto rle = compress(dev, d_v.span(), d_o.span());
  EXPECT_EQ(rle.n_runs, 100);
  EXPECT_LT(rle.bytes(), d_v.bytes() / 10);
  EXPECT_DOUBLE_EQ(measured_ratio(rle), 1000.0);
}

TEST(Rle, PaperGateUsesDimensionalityOverCardinality) {
  // news20: 1355191 / 19954 = 67.9  -> compress at R = 10
  EXPECT_TRUE(paper_gate(1355191, 19954, 10.0));
  // susy: 18 / 5000000 ~ 0         -> don't
  EXPECT_FALSE(paper_gate(18, 5000000, 10.0));
  EXPECT_FALSE(paper_gate(100, 0, 10.0));  // degenerate cardinality
}

}  // namespace
}  // namespace gbdt::rle
