#include "core/tree.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace gbdt {

std::pair<std::int32_t, std::int32_t> Tree::split(std::int32_t id,
                                                  std::int32_t attr,
                                                  float split_value,
                                                  bool default_left,
                                                  double gain) {
  const auto l = static_cast<std::int32_t>(nodes_.size());
  const auto r = l + 1;
  nodes_.emplace_back();
  nodes_.emplace_back();
  auto& n = nodes_[static_cast<std::size_t>(id)];
  n.left = l;
  n.right = r;
  n.attr = attr;
  n.split_value = split_value;
  n.default_left = default_left;
  n.gain = gain;
  return {l, r};
}

int Tree::depth() const {
  // Iterative depth via per-node levels (children always appear after their
  // parent, so one forward pass suffices).
  std::vector<int> level(nodes_.size(), 0);
  int d = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto& n = nodes_[i];
    if (!n.is_leaf()) {
      level[static_cast<std::size_t>(n.left)] = level[i] + 1;
      level[static_cast<std::size_t>(n.right)] = level[i] + 1;
    }
    d = std::max(d, level[i]);
  }
  return d;
}

std::int32_t Tree::n_leaves() const {
  std::int32_t c = 0;
  for (const auto& n : nodes_) c += n.is_leaf();
  return c;
}

std::string Tree::dump() const {
  std::ostringstream out;
  out.precision(9);
  std::vector<int> level(nodes_.size(), 0);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto& n = nodes_[i];
    if (!n.is_leaf()) {
      level[static_cast<std::size_t>(n.left)] = level[i] + 1;
      level[static_cast<std::size_t>(n.right)] = level[i] + 1;
    }
  }
  // Pre-order walk for readability.
  std::vector<std::int32_t> stack{0};
  while (!stack.empty()) {
    const auto id = stack.back();
    stack.pop_back();
    const auto& n = nodes_[static_cast<std::size_t>(id)];
    out << std::string(static_cast<std::size_t>(level[static_cast<std::size_t>(id)]) * 2, ' ');
    if (n.is_leaf()) {
      out << id << ":leaf=" << n.weight << " cover=" << n.n_instances << "\n";
    } else {
      out << id << ":[f" << n.attr << ">=" << n.split_value << "] yes="
          << n.left << " no=" << n.right
          << " missing=" << (n.default_left ? n.left : n.right)
          << " gain=" << n.gain << " cover=" << n.n_instances << "\n";
      stack.push_back(n.right);
      stack.push_back(n.left);
    }
  }
  return out.str();
}

bool Tree::same_structure(const Tree& a, const Tree& b, double tol) {
  if (a.n_nodes() != b.n_nodes()) return false;
  for (std::int32_t i = 0; i < a.n_nodes(); ++i) {
    const auto& x = a.node(i);
    const auto& y = b.node(i);
    if (x.left != y.left || x.right != y.right || x.attr != y.attr ||
        x.default_left != y.default_left) {
      return false;
    }
    if (x.is_leaf()) {
      if (std::abs(x.weight - y.weight) > tol) return false;
    } else if (std::abs(static_cast<double>(x.split_value) -
                        static_cast<double>(y.split_value)) > tol) {
      return false;
    }
  }
  return true;
}

void Tree::serialize(std::ostream& out) const {
  out << nodes_.size() << "\n";
  out.precision(17);
  for (const auto& n : nodes_) {
    out << n.left << ' ' << n.right << ' ' << n.attr << ' ';
    out.precision(9);
    out << n.split_value << ' ';
    out.precision(17);
    out << n.default_left << ' ' << n.weight << ' ' << n.gain << ' '
        << n.n_instances << ' ' << n.sum_g << ' ' << n.sum_h << "\n";
  }
}

Tree Tree::deserialize(std::istream& in) {
  std::size_t count = 0;
  if (!(in >> count) || count == 0) {
    throw std::runtime_error("tree deserialize: bad node count");
  }
  // The count comes from the file, so the tree grows as nodes parse rather
  // than trusting it with an allocation.  Children must follow their parent
  // as an adjacent pair (what Tree::split writes), so traversal always
  // moves forward and stays in bounds.
  Tree t;
  t.nodes_.clear();
  for (std::size_t id = 0; id < count; ++id) {
    TreeNode n;
    if (!(in >> n.left >> n.right >> n.attr >> n.split_value >>
          n.default_left >> n.weight >> n.gain >> n.n_instances >> n.sum_g >>
          n.sum_h)) {
      throw std::runtime_error("tree deserialize: truncated node data");
    }
    const std::int64_t left = n.left;
    const std::int64_t right = n.right;
    const bool leaf = left == -1 && right == -1;
    const bool internal = n.attr >= 0 && left > static_cast<std::int64_t>(id) &&
                          right == left + 1 &&
                          right < static_cast<std::int64_t>(count);
    if (!leaf && !internal) {
      throw std::runtime_error("tree deserialize: node " + std::to_string(id) +
                               " has invalid children or attribute");
    }
    t.nodes_.push_back(n);
  }
  return t;
}

}  // namespace gbdt
