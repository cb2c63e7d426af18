// Instance-major sparse training data (the "sparse representation" of paper
// Table I): each instance stores only its non-missing (attribute, value)
// pairs, CSR-style, plus a label per instance.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace gbdt::data {

/// One non-missing feature of an instance.
struct Entry {
  std::int32_t attr = 0;
  float value = 0.f;

  friend bool operator==(const Entry&, const Entry&) = default;
};

/// Sparse instance-major dataset (CSR rows of Entry + labels).
class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::int64_t n_attributes) : n_attributes_(n_attributes) {}

  /// Appends an instance.  Entries must have strictly increasing attributes
  /// in [0, n_attributes) and the label must be finite; otherwise throws
  /// std::invalid_argument naming the row, and the dataset is unchanged.
  void add_instance(std::span<const Entry> entries, float label);

  [[nodiscard]] std::int64_t n_instances() const {
    return static_cast<std::int64_t>(row_offsets_.size()) - 1;
  }
  [[nodiscard]] std::int64_t n_attributes() const { return n_attributes_; }
  [[nodiscard]] std::int64_t n_entries() const {
    return static_cast<std::int64_t>(entries_.size());
  }
  /// Fraction of the dense n x d grid that is present.
  [[nodiscard]] double density() const;

  [[nodiscard]] std::span<const Entry> instance(std::int64_t i) const {
    return {entries_.data() + row_offsets_[static_cast<std::size_t>(i)],
            entries_.data() + row_offsets_[static_cast<std::size_t>(i) + 1]};
  }
  [[nodiscard]] const std::vector<float>& labels() const { return labels_; }
  [[nodiscard]] std::vector<float>& labels() { return labels_; }
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  [[nodiscard]] const std::vector<std::int64_t>& row_offsets() const {
    return row_offsets_;
  }

  /// Raises n_attributes (e.g. after reading a file with unknown width).
  void set_n_attributes(std::int64_t d) {
    if (d > n_attributes_) n_attributes_ = d;
  }

  /// Bytes of the sparse representation (entries + offsets + labels).
  [[nodiscard]] std::size_t sparse_bytes() const;
  /// Bytes a dense n x d float matrix of the same data would need.
  [[nodiscard]] std::size_t dense_bytes() const;

  /// Splits off the first `head` instances into one dataset and the rest into
  /// another (train/test split helper; instances keep their order).
  [[nodiscard]] std::pair<Dataset, Dataset> split_at(std::int64_t head) const;

  // ---- query groups (learning-to-rank) ------------------------------------
  /// Installs query-group boundaries: offsets[0] = 0, offsets.back() =
  /// n_instances(), strictly increasing.  Instances of one query must be
  /// contiguous (the LightGBM .query convention).  Throws
  /// std::invalid_argument on malformed offsets.
  void set_query_offsets(std::vector<std::int64_t> offsets);

  [[nodiscard]] bool has_queries() const { return !query_offsets_.empty(); }
  [[nodiscard]] const std::vector<std::int64_t>& query_offsets() const {
    return query_offsets_;
  }
  [[nodiscard]] std::int64_t n_queries() const {
    return query_offsets_.empty()
               ? 0
               : static_cast<std::int64_t>(query_offsets_.size()) - 1;
  }

  /// Splits off the first `head_queries` query groups into one dataset and
  /// the rest into another; both halves keep (rebased) query offsets.
  [[nodiscard]] std::pair<Dataset, Dataset> split_queries_at(
      std::int64_t head_queries) const;

 private:
  /// Appends a row already known to be valid (add_instance's checks passed).
  void append_row(std::span<const Entry> entries, float label);

  std::int64_t n_attributes_ = 0;
  std::vector<std::int64_t> row_offsets_{0};
  std::vector<Entry> entries_;
  std::vector<float> labels_;
  std::vector<std::int64_t> query_offsets_;  // empty = no query structure
};

/// Where one attribute sits in one CSR row, and what finding it read.
struct RowHit {
  std::int64_t pos = 0;      // first entry whose attribute is >= a
  bool found = false;        // entry `pos` holds it
  std::uint64_t probes = 0;  // entries read, the hit included
};

/// Looks attribute `a` up in entries [row_lo, row_hi) of `keys`, where an
/// entry's key is attribute * n_bins + bin (n_bins = 1: the attribute
/// itself).  The row's attributes are strictly increasing and below
/// `n_attr` (the add_instance contract), so in a row of `len` entries the
/// entry at position k holds an attribute in [k, k + n_attr - len], and `a`
/// can only sit at positions [a - (n_attr - len), a].  The lookup
/// binary-searches that window alone: one probe on a row that holds every
/// attribute, none for an attribute at or past n_attr.  `pos` is
/// std::lower_bound's answer over the whole row, since every entry left of
/// the window holds a smaller attribute and every entry right of it a
/// larger one.  The device row lookup of the histogram kernels and of the
/// device tree walk.
template <class Key>
[[nodiscard]] inline RowHit find_in_row(std::span<const Key> keys,
                                        std::int64_t row_lo,
                                        std::int64_t row_hi,
                                        std::int64_t n_attr, std::int64_t a,
                                        std::int64_t n_bins = 1) {
  std::int64_t lo = std::max(row_lo, row_hi - n_attr + a);
  std::int64_t hi = std::min(row_hi, row_lo + a + 1);
  const std::int64_t key_lo = a * n_bins;
  const std::int64_t key_hi = key_lo + n_bins;
  RowHit hit;
  while (lo < hi) {
    const std::int64_t mid = (lo + hi) / 2;
    const auto key =
        static_cast<std::int64_t>(keys[static_cast<std::size_t>(mid)]);
    ++hit.probes;
    if (key < key_lo) {
      lo = mid + 1;
    } else if (key >= key_hi) {
      hi = mid;
    } else {
      hit.pos = mid;
      hit.found = true;
      return hit;
    }
  }
  hit.pos = std::min(lo, row_hi);  // lo passes the row when a > n_attr
  return hit;
}

}  // namespace gbdt::data
