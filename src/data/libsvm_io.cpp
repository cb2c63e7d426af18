#include "data/libsvm_io.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace gbdt::data {

namespace {

// Largest 1-based feature index whose 0-based attribute fits in int32.
constexpr std::int64_t kMaxIndex =
    std::int64_t{std::numeric_limits<std::int32_t>::max()} + 1;

[[noreturn]] void fail(std::int64_t line_no, const std::string& what) {
  throw std::runtime_error("libsvm parse error at line " +
                           std::to_string(line_no) + ": " + what);
}

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

/// Pops the next whitespace-delimited token off `rest` (empty at the end).
std::string_view next_token(std::string_view& rest) {
  std::size_t b = 0;
  while (b < rest.size() && is_space(rest[b])) ++b;
  std::size_t e = b;
  while (e < rest.size() && !is_space(rest[e])) ++e;
  const std::string_view tok = rest.substr(b, e - b);
  rest.remove_prefix(e);
  return tok;
}

/// Parses all of `s` as a float; a leading '+' is accepted.
bool parse_float(std::string_view s, float& out) {
  if (s.size() > 1 && s[0] == '+' && s[1] != '-') s.remove_prefix(1);
  const char* end = s.data() + s.size();
  const auto [p, ec] = std::from_chars(s.data(), end, out);
  return ec == std::errc{} && p == end;
}

}  // namespace

Dataset read_libsvm(std::istream& in) {
  Dataset ds;
  std::string line;
  std::vector<Entry> entries;
  std::int64_t line_no = 0;
  std::int64_t max_attr = 0;

  while (std::getline(in, line)) {
    ++line_no;
    std::string_view rest(line);
    rest = rest.substr(0, rest.find('#'));
    const std::string_view label_tok = next_token(rest);
    if (label_tok.empty()) continue;  // blank line
    float label = 0.f;
    if (!parse_float(label_tok, label) || !std::isfinite(label)) {
      fail(line_no, "bad label '" + std::string(label_tok) + "'");
    }

    entries.clear();
    std::int64_t prev_idx = 0;
    for (std::string_view tok = next_token(rest); !tok.empty();
         tok = next_token(rest)) {
      const auto bad = [&](const char* what) {
        fail(line_no, std::string(what) + " in '" + std::string(tok) + "'");
      };
      const auto colon = tok.find(':');
      if (colon == std::string_view::npos) bad("missing ':'");
      std::int64_t idx = 0;
      const char* first = tok.data();
      const auto [p, ec] = std::from_chars(first, first + colon, idx);
      if (ec != std::errc{} || p != first + colon || idx < 1 ||
          idx > kMaxIndex) {
        bad("bad feature index");
      }
      if (idx <= prev_idx) fail(line_no, "indices not strictly increasing");
      prev_idx = idx;
      float value = 0.f;
      if (!parse_float(tok.substr(colon + 1), value)) bad("bad feature value");
      if (idx > max_attr) max_attr = idx;
      // A NaN value is a missing entry: the CSC layout is missing-aware.
      if (std::isnan(value)) continue;
      if (std::isinf(value)) bad("non-finite feature value");
      entries.push_back({static_cast<std::int32_t>(idx - 1), value});
    }
    ds.set_n_attributes(max_attr);
    ds.add_instance(entries, label);
  }
  ds.set_n_attributes(max_attr);
  return ds;
}

Dataset read_libsvm_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return read_libsvm(in);
}

void write_libsvm(const Dataset& ds, std::ostream& out) {
  out.precision(9);  // float round-trip precision
  for (std::int64_t i = 0; i < ds.n_instances(); ++i) {
    out << ds.labels()[static_cast<std::size_t>(i)];
    for (const auto& e : ds.instance(i)) {
      out << ' ' << (e.attr + 1) << ':' << e.value;
    }
    out << '\n';
  }
}

void write_libsvm_file(const Dataset& ds, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  write_libsvm(ds, out);
}

void read_query_file(Dataset& ds, std::istream& in) {
  std::vector<std::int64_t> offsets{0};
  std::string line;
  std::int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream ss(line);
    std::int64_t count = 0;
    if (!(ss >> count)) continue;  // blank line
    if (count < 1) fail(line_no, "query group size must be >= 1");
    offsets.push_back(offsets.back() + count);
  }
  if (offsets.back() != ds.n_instances()) {
    throw std::runtime_error(
        "query file covers " + std::to_string(offsets.back()) +
        " instances but the dataset has " + std::to_string(ds.n_instances()));
  }
  ds.set_query_offsets(std::move(offsets));
}

void read_query_file(Dataset& ds, const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  read_query_file(ds, in);
}

}  // namespace gbdt::data
