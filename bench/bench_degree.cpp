// Experiment E6 (Theorem 3): trees of degree d are searched through their
// binarized version; the cooperative search time gains a log d factor
// (our caterpillar binarization gives the simple d-factor path stretch;
// both curves are reported).

#include "common.hpp"
#include "core/general_tree.hpp"

namespace {

struct DegreeInstance {
  cat::Tree tree;
  cat::Tree binarized;
  std::vector<cat::NodeId> orig_of_new;
  std::unique_ptr<fc::Structure> fc;
  std::unique_ptr<coop::CoopStructure> coop;
};

const DegreeInstance& degree_instance(std::size_t degree) {
  static std::map<std::size_t, std::unique_ptr<DegreeInstance>> cache;
  auto it = cache.find(degree);
  if (it == cache.end()) {
    auto inst = std::make_unique<DegreeInstance>();
    std::mt19937_64 rng(degree * 7);
    inst->tree = cat::make_random_tree(4096, degree, 40960,
                                       cat::CatalogShape::kRandom, rng);
    inst->binarized = cat::binarize(inst->tree, inst->orig_of_new);
    inst->fc =
        std::make_unique<fc::Structure>(fc::Structure::build(inst->binarized));
    inst->coop = std::make_unique<coop::CoopStructure>(
        coop::CoopStructure::build(*inst->fc));
    it = cache.emplace(degree, std::move(inst)).first;
  }
  return *it->second;
}

void BM_DegreeReducedSearch(benchmark::State& state) {
  const std::size_t degree = static_cast<std::size_t>(state.range(0));
  const std::size_t p = static_cast<std::size_t>(state.range(1));
  const auto& inst = degree_instance(degree);
  std::mt19937_64 rng(degree * 31 + p);
  std::uint64_t steps = 0, lifted_len = 0, orig_len = 0, queries = 0;
  for (auto _ : state) {
    const std::vector<cat::NodeId> path = serve::random_path(inst.tree, rng);
    const auto lifted = coop::lift_path_to_binarized(
        inst.tree, inst.binarized, inst.orig_of_new, path);
    const cat::Key y = cat::Key(rng() % 1'000'000'000);
    pram::Machine m(p);
    const auto r = coop::coop_search_segment(*inst.coop, m, lifted, y);
    benchmark::DoNotOptimize(r.proper_index.data());
    steps += m.stats().steps;
    lifted_len += lifted.size();
    orig_len += path.size();
    ++queries;
  }
  state.counters["d"] = double(degree);
  state.counters["p"] = double(p);
  state.counters["steps"] = double(steps) / double(queries);
  state.counters["path_stretch"] = double(lifted_len) / double(orig_len);
  state.counters["logd"] =
      std::log2(std::max<double>(2.0, double(degree)));
}

}  // namespace

BENCHMARK(BM_DegreeReducedSearch)
    ->ArgsProduct({{2, 3, 4, 8, 16}, {16, 256, 4096}})
    ->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
