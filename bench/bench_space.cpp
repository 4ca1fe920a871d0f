// Experiment E4 (Lemma 2 + Figure 3): the storage of T' is O(n).
//
// Reports, per n: augmented-catalog entries (the cascading structure S),
// skeleton entries per substructure T_i (which must decay geometrically
// thanks to the truncation), and the grand total divided by n (which must
// approach a constant).  The served arena (serve::FlatCascade, the bytes a
// server maps) is reported beside them, per input entry and per
// augmented entry: the constant of Lemma 2 that serving pays.

#include "common.hpp"
#include "serve/flat_cascade.hpp"

namespace {

void BM_SpacePerSubstructure(benchmark::State& state) {
  const auto height = static_cast<std::uint32_t>(state.range(0));
  const std::size_t entries = std::size_t(1) << (height + 4);
  const auto& inst = bench::balanced_instance(
      height, entries, cat::CatalogShape::kRandom, 44);
  for (auto _ : state) {
    benchmark::DoNotOptimize(inst.coop->total_skeleton_entries());
  }
  state.counters["n"] = double(entries);
  state.counters["aug_entries"] = double(inst.fc->total_aug_entries());
  state.counters["skeleton_total"] =
      double(inst.coop->total_skeleton_entries());
  state.counters["total_over_n"] =
      double(inst.coop->total_entries()) / double(entries);
  const auto flat = serve::FlatCascade::compile(*inst.fc);
  if (!flat.ok()) {
    state.SkipWithError(flat.status().to_string().c_str());
    return;
  }
  state.counters["arena_bytes_per_n"] =
      double(flat->arena_bytes()) / double(entries);
  state.counters["arena_bytes_per_aug"] =
      double(flat->arena_bytes()) / double(inst.fc->total_aug_entries());
  for (std::uint32_t i = 0; i < inst.coop->substructure_count(); ++i) {
    std::string name = "T";
    name += std::to_string(i);
    state.counters[name] = double(inst.coop->substructure(i).skeleton_entries);
  }
}

void BM_SpaceByShape(benchmark::State& state) {
  // Lemma 2 must hold regardless of how the entries are distributed; the
  // paper singles out variable catalog sizes as the hard case.
  const auto shape = static_cast<cat::CatalogShape>(state.range(0));
  const std::uint32_t height = 14;
  const std::size_t entries = 1 << 18;
  const auto& inst = bench::balanced_instance(height, entries, shape, 45);
  for (auto _ : state) {
    benchmark::DoNotOptimize(inst.coop->total_skeleton_entries());
  }
  state.counters["n"] = double(entries);
  state.counters["total_over_n"] =
      double(inst.coop->total_entries()) / double(entries);
}

}  // namespace

BENCHMARK(BM_SpacePerSubstructure)
    ->Arg(8)->Arg(10)->Arg(12)->Arg(14)->Arg(16)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SpaceByShape)
    ->Arg(int(cat::CatalogShape::kUniform))
    ->Arg(int(cat::CatalogShape::kRandom))
    ->Arg(int(cat::CatalogShape::kRootHeavy))
    ->Arg(int(cat::CatalogShape::kLeafHeavy))
    ->Arg(int(cat::CatalogShape::kSkewed))
    ->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
