#include "data/dataset.h"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace gbdt::data {

void Dataset::add_instance(std::span<const Entry> entries, float label) {
  // Checked in every build: the CSC build indexes per-attribute counters by
  // attr, the sorted layout assumes one entry per attribute, and the value
  // sort assumes finite values.
  const auto reject = [this](const std::string& why) {
    throw std::invalid_argument("row " + std::to_string(n_instances()) +
                                ": " + why);
  };
  if (!std::isfinite(label)) reject("label is not finite");
  std::int32_t prev = -1;
  for (const Entry& e : entries) {
    if (e.attr <= prev || e.attr >= n_attributes_) [[unlikely]] {
      if (e.attr < 0 || e.attr >= n_attributes_) {
        reject("attribute " + std::to_string(e.attr) + " outside [0, " +
               std::to_string(n_attributes_) + ")");
      }
      reject("attributes not strictly increasing (" + std::to_string(prev) +
             " then " + std::to_string(e.attr) + ")");
    }
    // A NaN breaks the strict weak ordering the CSC build's value sort
    // needs (undefined behaviour); a missing value is an absent entry.
    if (!std::isfinite(e.value)) [[unlikely]] {
      reject("attribute " + std::to_string(e.attr) + " value is not finite");
    }
    prev = e.attr;
  }
  append_row(entries, label);
}

void Dataset::append_row(std::span<const Entry> entries, float label) {
  entries_.insert(entries_.end(), entries.begin(), entries.end());
  row_offsets_.push_back(static_cast<std::int64_t>(entries_.size()));
  labels_.push_back(label);
}

double Dataset::density() const {
  const double cells =
      static_cast<double>(n_instances()) * static_cast<double>(n_attributes_);
  return cells == 0 ? 0.0 : static_cast<double>(n_entries()) / cells;
}

std::size_t Dataset::sparse_bytes() const {
  return entries_.size() * sizeof(Entry) +
         row_offsets_.size() * sizeof(std::int64_t) +
         labels_.size() * sizeof(float);
}

std::size_t Dataset::dense_bytes() const {
  return static_cast<std::size_t>(n_instances()) *
             static_cast<std::size_t>(n_attributes_) * sizeof(float) +
         labels_.size() * sizeof(float);
}

std::pair<Dataset, Dataset> Dataset::split_at(std::int64_t head) const {
  Dataset a(n_attributes_);
  Dataset b(n_attributes_);
  for (std::int64_t i = 0; i < n_instances(); ++i) {
    // Rows of a dataset passed add_instance's checks already.
    (i < head ? a : b)
        .append_row(instance(i), labels_[static_cast<std::size_t>(i)]);
  }
  return {std::move(a), std::move(b)};
}

void Dataset::set_query_offsets(std::vector<std::int64_t> offsets) {
  if (offsets.size() < 2 || offsets.front() != 0 ||
      offsets.back() != n_instances()) {
    throw std::invalid_argument(
        "query offsets must start at 0 and end at n_instances");
  }
  for (std::size_t q = 1; q < offsets.size(); ++q) {
    if (offsets[q] <= offsets[q - 1]) {
      throw std::invalid_argument("query offsets must be strictly increasing");
    }
  }
  query_offsets_ = std::move(offsets);
}

std::pair<Dataset, Dataset> Dataset::split_queries_at(
    std::int64_t head_queries) const {
  if (!has_queries()) {
    throw std::logic_error("split_queries_at needs query offsets");
  }
  if (head_queries < 0 || head_queries > n_queries()) {
    throw std::invalid_argument("head_queries out of range");
  }
  const std::int64_t head_rows =
      query_offsets_[static_cast<std::size_t>(head_queries)];
  auto [a, b] = split_at(head_rows);
  std::vector<std::int64_t> qa(query_offsets_.begin(),
                               query_offsets_.begin() + head_queries + 1);
  std::vector<std::int64_t> qb;
  for (std::size_t q = static_cast<std::size_t>(head_queries);
       q < query_offsets_.size(); ++q) {
    qb.push_back(query_offsets_[q] - head_rows);
  }
  if (head_queries > 0) a.set_query_offsets(std::move(qa));
  if (head_queries < n_queries()) b.set_query_offsets(std::move(qb));
  return {std::move(a), std::move(b)};
}

}  // namespace gbdt::data
