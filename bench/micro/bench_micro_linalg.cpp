// Micro-benchmarks (google-benchmark): the Sec. 5.2 complexity claim in
// isolation — a Sherman–Morrison step on the sparse structure is
// near-constant time regardless of d.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/lspi.hpp"
#include "linalg/sparse_matrix.hpp"
#include "linalg/sparse_vector.hpp"

namespace megh {
namespace {

void BM_SparseUnitShermanMorrison(benchmark::State& state) {
  const std::int64_t d = state.range(0);
  LspiLearner learner(d, 0.5);
  Rng rng(1);
  for (auto _ : state) {
    const auto a =
        static_cast<std::int64_t>(rng.index(static_cast<std::size_t>(d)));
    const auto b =
        static_cast<std::int64_t>(rng.index(static_cast<std::size_t>(d)));
    learner.update(a, 1.0, b);
    benchmark::DoNotOptimize(learner.q_value(a));
  }
  state.SetLabel("qtable_nnz=" + std::to_string(learner.qtable_nnz()));
}
BENCHMARK(BM_SparseUnitShermanMorrison)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 18)
    ->Arg(841600);  // the paper's PlanetLab d = 1052 x 800

void BM_SparseRank1UnitFactors(benchmark::State& state) {
  // The rank-1 merge kernel in isolation, with the factor shape the LSPI
  // critic produces against a fresh model: u = (1/d)·e_a and
  // w = (1/d)·e_a − (γ/d)·e_b. Exercises the per-row sorted merge, the
  // diagonal update, and the sub-tolerance pruning path without the
  // extraction/θ machinery around it.
  const std::int64_t d = state.range(0);
  const double inv_d = 1.0 / static_cast<double>(d);
  SparseMatrix B(d, inv_d);
  Rng rng(4);
  SparseVector u(d), w(d);
  for (auto _ : state) {
    const auto a =
        static_cast<std::int64_t>(rng.index(static_cast<std::size_t>(d)));
    const auto b =
        static_cast<std::int64_t>(rng.index(static_cast<std::size_t>(d)));
    u.clear();
    u.push_back(a, inv_d);
    w.clear();
    if (a == b) {
      w.push_back(a, 0.5 * inv_d);
    } else {
      w.push_back(std::min(a, b), a < b ? inv_d : -0.5 * inv_d);
      w.push_back(std::max(a, b), a < b ? -0.5 * inv_d : inv_d);
    }
    B.rank1_update(u, w, -1.0);
    benchmark::DoNotOptimize(B.offdiag_nnz());
  }
  state.SetLabel("offdiag_nnz=" + std::to_string(B.offdiag_nnz()));
}
BENCHMARK(BM_SparseRank1UnitFactors)->Arg(1 << 18)->Arg(841600);

void BM_LspiUpdateBatch(benchmark::State& state) {
  // Per-step multi-action update: Megh closes every pending action against
  // the same greedy next action, so update_batch reuses B.row(b) across
  // the batch. Time is per batch; items/s is per update — compare across
  // batch sizes for the amortization.
  const std::int64_t d = 841600;
  const auto batch = static_cast<std::size_t>(state.range(0));
  LspiLearner learner(d, 0.5);
  Rng rng(5);
  std::vector<std::int64_t> actions(batch);
  for (auto _ : state) {
    for (auto& a : actions) {
      a = static_cast<std::int64_t>(rng.index(static_cast<std::size_t>(d)));
    }
    const auto b =
        static_cast<std::int64_t>(rng.index(static_cast<std::size_t>(d)));
    learner.update_batch(actions, 1.0, b);
    benchmark::DoNotOptimize(learner.q_value(b));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * batch));
}
BENCHMARK(BM_LspiUpdateBatch)->Arg(1)->Arg(4)->Arg(16);

void BM_SparseMatrixRowExtraction(benchmark::State& state) {
  const std::int64_t d = 1 << 16;
  SparseMatrix m(d, 1.0 / static_cast<double>(d));
  Rng rng(3);
  for (int k = 0; k < state.range(0); ++k) {
    m.set(static_cast<SparseMatrix::Index>(rng.index(static_cast<std::size_t>(d))),
          static_cast<SparseMatrix::Index>(rng.index(static_cast<std::size_t>(d))),
          rng.normal());
  }
  for (auto _ : state) {
    const auto r = static_cast<SparseMatrix::Index>(
        rng.index(static_cast<std::size_t>(d)));
    benchmark::DoNotOptimize(m.row(r));
  }
}
BENCHMARK(BM_SparseMatrixRowExtraction)->Arg(1000)->Arg(100000);

}  // namespace
}  // namespace megh

BENCHMARK_MAIN();
