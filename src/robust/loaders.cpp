#include "robust/loaders.hpp"

#include <fstream>
#include <istream>
#include <string>
#include <vector>

namespace robust {

using coop::Status;

namespace {

/// Size ceilings: a text file must not be able to request allocations far
/// beyond what it could itself describe (each node/edge/key is at least
/// two bytes of input, so these caps are generous for any legitimate file
/// while stopping "1000000000000" header bombs cold).
constexpr std::size_t kMaxNodes = std::size_t{1} << 22;
constexpr std::size_t kMaxKeysPerNode = std::size_t{1} << 26;
constexpr std::size_t kMaxEdges = std::size_t{1} << 24;

}  // namespace

coop::Expected<cat::Tree> load_tree(std::istream& in) {
  std::size_t n = 0;
  if (!(in >> n)) {
    return Status::invalid_argument("tree file: cannot read the node count");
  }
  if (n == 0) {
    return Status::invalid_argument("tree file: empty tree");
  }
  if (n > kMaxNodes) {
    return Status::invalid_argument("tree file: node count " +
                                    std::to_string(n) + " exceeds the cap " +
                                    std::to_string(kMaxNodes));
  }
  cat::Tree tree(n);
  std::vector<std::vector<cat::Key>> keys(n);
  for (std::size_t v = 0; v < n; ++v) {
    const std::string at = "tree file: node " + std::to_string(v);
    long long parent = 0;
    std::size_t k = 0;
    if (!(in >> parent >> k)) {
      return Status::invalid_argument(at + ": truncated or non-numeric");
    }
    if (v == 0) {
      if (parent != -1) {
        return Status::invalid_argument(at + ": node 0 must be the root "
                                             "(parent -1)");
      }
    } else {
      if (parent < 0 || static_cast<std::size_t>(parent) >= v) {
        return Status::invalid_argument(at + ": parent " +
                                        std::to_string(parent) +
                                        " must precede the node");
      }
      tree.add_child(cat::NodeId(parent), cat::NodeId(v));
    }
    if (k > kMaxKeysPerNode) {
      return Status::invalid_argument(at + ": catalog size " +
                                      std::to_string(k) + " exceeds the cap");
    }
    keys[v].resize(k);
    for (auto& key : keys[v]) {
      if (!(in >> key)) {
        return Status::invalid_argument(at + ": truncated or non-numeric key");
      }
      if (key == cat::kInfinity) {
        return Status::invalid_argument(at + ": key equals the +infinity "
                                             "sentinel");
      }
    }
    for (std::size_t i = 1; i < k; ++i) {
      if (keys[v][i - 1] >= keys[v][i]) {
        return Status::invalid_argument(at + ": keys must be strictly "
                                             "increasing");
      }
    }
  }
  tree.finalize();
  for (std::size_t v = 0; v < n; ++v) {
    tree.set_catalog(cat::NodeId(v), cat::Catalog::from_sorted_keys(keys[v]));
  }
  if (!tree.validate()) {
    return Status::internal("tree file: loaded tree failed validation");
  }
  return tree;
}

coop::Expected<cat::Tree> load_tree_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return coop::Status::invalid_argument("cannot open " + path);
  }
  return load_tree(in);
}

coop::Expected<geom::MonotoneSubdivision> load_subdivision(std::istream& in) {
  std::size_t f = 0, e = 0;
  geom::Coord ymin = 0, ymax = 0;
  if (!(in >> f >> ymin >> ymax >> e)) {
    return Status::invalid_argument(
        "subdivision file: cannot read the header \"f ymin ymax E\"");
  }
  if (f == 0) {
    return Status::invalid_argument("subdivision file: zero regions");
  }
  if (e > kMaxEdges) {
    return Status::invalid_argument("subdivision file: edge count " +
                                    std::to_string(e) + " exceeds the cap");
  }
  if (ymin >= ymax) {
    return Status::invalid_argument("subdivision file: ymin must be < ymax");
  }
  geom::MonotoneSubdivision sub;
  sub.num_regions = f;
  sub.ymin = ymin;
  sub.ymax = ymax;
  sub.edges.reserve(e);
  for (std::size_t i = 0; i < e; ++i) {
    const std::string at = "subdivision file: edge " + std::to_string(i);
    geom::SubEdge edge;
    if (!(in >> edge.lo.x >> edge.lo.y >> edge.hi.x >> edge.hi.y >>
          edge.min_sep >> edge.max_sep)) {
      return Status::invalid_argument(at + ": truncated or non-numeric");
    }
    sub.edges.push_back(edge);
  }
  // Full structural validation (span signs, separator ranges, coverage,
  // order, coordinate limit) — everything locate() will later assume.
  if (const std::string err = sub.validate(); !err.empty()) {
    return Status::invalid_argument("subdivision file: " + err);
  }
  return sub;
}

}  // namespace robust
