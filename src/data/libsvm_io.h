// LibSVM text format I/O ("label idx:value idx:value ...", 1-based indices),
// the format of the eight datasets the paper downloads from the LibSVM site.
#pragma once

#include <iosfwd>
#include <string>

#include "data/dataset.h"

namespace gbdt::data {

/// Parses LibSVM text.  Lines may end with comments introduced by '#'.
/// Indices must be strictly increasing within a line (LibSVM convention)
/// and at most 2^31; labels and values must parse in full, and labels must
/// be finite.  Violations raise std::runtime_error with the offending line
/// number.  A NaN feature value is read as a missing entry.
[[nodiscard]] Dataset read_libsvm(std::istream& in);
[[nodiscard]] Dataset read_libsvm_file(const std::string& path);

void write_libsvm(const Dataset& ds, std::ostream& out);
void write_libsvm_file(const Dataset& ds, const std::string& path);

/// Reads a LightGBM-style query file (one integer per line: the number of
/// consecutive instances belonging to each query) and installs the resulting
/// offsets on `ds`.  Counts must be positive and sum to ds.n_instances().
void read_query_file(Dataset& ds, std::istream& in);
void read_query_file(Dataset& ds, const std::string& path);

}  // namespace gbdt::data
