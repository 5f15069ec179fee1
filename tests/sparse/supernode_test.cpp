// Supernode partition properties of the recorded ReplayPlan.
//
// detect_supernodes() must produce a partition (every elimination step
// covered exactly once, in order) whose blocks satisfy the two structural
// invariants the batched replay kernel's dense rank-k blocks rely on:
//   * U chain:  urow(i) == [i+1] ++ urow(i+1) for interior steps, so every
//     row's in-block targets are the contiguous steps after it and the
//     off-block tail indices are shared by the whole block;
//   * L fill:   ldeps(r) ends with [b .. r-1] — each block row depends on
//     ALL earlier block steps.
// The checks below recompute the invariants from the plan's flat arrays,
// never from the detector's own bookkeeping.
#include "sparse/lu.h"

#include <gtest/gtest.h>

#include <complex>
#include <memory>
#include <vector>

#include "circuits/ladder.h"
#include "circuits/ua741.h"
#include "mna/nodal.h"
#include "netlist/canonical.h"
#include "support/random.h"
#include "test_matrices.h"

namespace symref::sparse {
namespace {

using Complex = std::complex<double>;
using test::at_i;
using test::entry;
using test::random_matrix;

/// U row of step i as an ascending step-target list.
std::vector<int> u_row(const ReplayPlan& plan, int i) {
  return {plan.u_steps.begin() + plan.u_start[static_cast<std::size_t>(i)],
          plan.u_steps.begin() + plan.u_start[static_cast<std::size_t>(i) + 1]};
}

/// L dependencies of step r as an ascending step list.
std::vector<int> l_deps(const ReplayPlan& plan, int r) {
  return {plan.l_steps.begin() + plan.l_start[static_cast<std::size_t>(r)],
          plan.l_steps.begin() + plan.l_start[static_cast<std::size_t>(r) + 1]};
}

/// Every step covered exactly once, blocks non-empty and in order.
void expect_valid_partition(const ReplayPlan& plan) {
  ASSERT_FALSE(plan.supernode_start.empty());
  EXPECT_EQ(plan.supernode_start.front(), 0);
  EXPECT_EQ(plan.supernode_start.back(), plan.dim);
  for (std::size_t s = 0; s + 1 < plan.supernode_start.size(); ++s) {
    EXPECT_LT(plan.supernode_start[s], plan.supernode_start[s + 1]) << "block " << s;
  }
  EXPECT_EQ(plan.supernode_count(),
            plan.supernode_start.empty() ? 0u : plan.supernode_start.size() - 1);
}

/// The structural invariants of every multi-step block.
void expect_block_invariants(const ReplayPlan& plan) {
  for (std::size_t s = 0; s + 1 < plan.supernode_start.size(); ++s) {
    const int b = plan.supernode_start[s];
    const int e = plan.supernode_start[s + 1];
    for (int i = b; i + 1 < e; ++i) {
      // urow(i) == [i+1] ++ urow(i+1): the U chain condition.
      const std::vector<int> row = u_row(plan, i);
      const std::vector<int> next = u_row(plan, i + 1);
      ASSERT_EQ(row.size(), next.size() + 1) << "block " << s << " step " << i;
      EXPECT_EQ(row.front(), i + 1) << "block " << s << " step " << i;
      for (std::size_t k = 0; k < next.size(); ++k) {
        EXPECT_EQ(row[k + 1], next[k]) << "block " << s << " step " << i << " pos " << k;
      }
    }
    for (int r = b + 1; r < e; ++r) {
      // ldeps(r) ends with [b .. r-1]: full in-block L fill.
      const std::vector<int> deps = l_deps(plan, r);
      const std::size_t in_block = static_cast<std::size_t>(r - b);
      ASSERT_GE(deps.size(), in_block) << "block " << s << " row " << r;
      for (std::size_t k = 0; k < in_block; ++k) {
        EXPECT_EQ(deps[deps.size() - in_block + k], b + static_cast<int>(k))
            << "block " << s << " row " << r;
      }
      // And everything before the suffix is strictly off-block.
      for (std::size_t k = 0; k + in_block < deps.size(); ++k) {
        EXPECT_LT(deps[k], b) << "block " << s << " row " << r;
      }
    }
  }
}

/// Greedy maximality: no block could have absorbed its successor's first
/// step (otherwise the detector under-merged and the dense kernel loses
/// lanes it was entitled to).
void expect_blocks_maximal(const ReplayPlan& plan) {
  for (std::size_t s = 0; s + 2 < plan.supernode_start.size(); ++s) {
    const int b = plan.supernode_start[s];
    const int e = plan.supernode_start[s + 1];
    const int last = e - 1;
    // Extending [b, e) by step e requires the U chain at `last` and the L
    // suffix at e; at least one must fail.
    const std::vector<int> row = u_row(plan, last);
    const std::vector<int> next = u_row(plan, e);
    bool chain_holds = row.size() == next.size() + 1 && !row.empty() && row.front() == e;
    if (chain_holds) {
      for (std::size_t k = 0; k < next.size(); ++k) {
        if (row[k + 1] != next[k]) {
          chain_holds = false;
          break;
        }
      }
    }
    bool l_suffix_holds = true;
    const std::vector<int> deps = l_deps(plan, e);
    const std::size_t in_block = static_cast<std::size_t>(e - b);
    if (deps.size() < in_block) {
      l_suffix_holds = false;
    } else {
      for (std::size_t k = 0; k < in_block; ++k) {
        if (deps[deps.size() - in_block + k] != b + static_cast<int>(k)) {
          l_suffix_holds = false;
          break;
        }
      }
    }
    EXPECT_FALSE(chain_holds && l_suffix_holds)
        << "blocks " << s << " and " << s + 1 << " should have merged";
  }
}

void expect_all_properties(const SparseLu& lu) {
  ASSERT_TRUE(lu.has_plan());
  const std::shared_ptr<const ReplayPlan> plan = lu.plan();
  expect_valid_partition(*plan);
  expect_block_invariants(*plan);
  expect_blocks_maximal(*plan);
}

TEST(Supernodes, DiagonalMatrixIsAllSingletons) {
  // No off-diagonal structure: the U chain never links two steps.
  const int n = 12;
  std::vector<PatternStamp> m;
  for (int i = 0; i < n; ++i) m.push_back(entry(i, i, {1.0 + i, 0.0}));
  SparseLu lu;
  ASSERT_TRUE(lu.factor(at_i(n, m)));
  EXPECT_EQ(lu.supernode_count(), static_cast<std::size_t>(n));
  expect_all_properties(lu);
}

TEST(Supernodes, DenseMatrixIsOneBlock) {
  support::Rng rng(7);
  const int n = 10;
  std::vector<PatternStamp> m;
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      const double diag = r == c ? 4.0 : 0.0;
      m.push_back(entry(r, c, {diag + rng.uniform(-1, 1), rng.uniform(-1, 1)}));
    }
  }
  SparseLu lu;
  ASSERT_TRUE(lu.factor(at_i(n, m)));
  EXPECT_EQ(lu.supernode_count(), 1u);
  expect_all_properties(lu);
}

TEST(Supernodes, TridiagonalMergesOnlyTheTrailingCorner) {
  // Markowitz keeps a tridiagonal fill-free: urow(i) = {i+1} chains with
  // urow(i+1) = {i+2} only at the very end, where the final 2x2 corner IS
  // dense — so exactly the last two steps merge: n-1 supernodes.
  const int n = 20;
  std::vector<PatternStamp> m;
  for (int i = 0; i < n; ++i) {
    m.push_back(entry(i, i, {4.0, 0.0}));
    if (i > 0) {
      m.push_back(entry(i, i - 1, {-1.0, 0.0}));
      m.push_back(entry(i - 1, i, {-1.0, 0.0}));
    }
  }
  SparseLu lu;
  ASSERT_TRUE(lu.factor(at_i(n, m)));
  EXPECT_EQ(lu.supernode_count(), static_cast<std::size_t>(n - 1));
  expect_all_properties(lu);
}

TEST(Supernodes, TrivialDimensions) {
  SparseLu lu0;
  ASSERT_TRUE(lu0.factor(at_i(0, {})));
  EXPECT_EQ(lu0.supernode_count(), 0u);

  SparseLu lu1;
  ASSERT_TRUE(lu1.factor(at_i(1, {entry(0, 0, {2.0, 0.0})})));
  EXPECT_EQ(lu1.supernode_count(), 1u);
  expect_all_properties(lu1);
}

TEST(Supernodes, ArrowheadMatrixFormsTrailingBlock) {
  // Arrowhead (dense last row+column, diagonal elsewhere): elimination of
  // the diagonal steps fills nothing, and the trailing steps go dense. The
  // partition must stay valid and the invariants must hold whatever the
  // pivot order chose.
  const int n = 14;
  std::vector<PatternStamp> m;
  for (int i = 0; i < n; ++i) m.push_back(entry(i, i, {3.0 + i, 0.0}));
  for (int i = 0; i + 1 < n; ++i) {
    m.push_back(entry(n - 1, i, {0.5, 0.1}));
    m.push_back(entry(i, n - 1, {0.5, -0.1}));
  }
  SparseLu lu;
  ASSERT_TRUE(lu.factor(at_i(n, m)));
  expect_all_properties(lu);
  EXPECT_LE(lu.supernode_count(), static_cast<std::size_t>(n));
}

TEST(Supernodes, RandomMatricesSatisfyAllInvariants) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    for (const int n : {8, 17, 33, 64, 120}) {
      SCOPED_TRACE(::testing::Message() << "seed=" << seed << " n=" << n);
      support::Rng rng(seed * 7919u + static_cast<std::uint64_t>(n));
      const CompressedMatrix m = random_matrix(rng, n, 6.0 / n);
      SparseLu lu;
      ASSERT_TRUE(lu.factor(m));
      expect_all_properties(lu);
    }
  }
}

TEST(Supernodes, CircuitMatricesSatisfyAllInvariants) {
  for (const int stages : {8, 32, 96}) {
    SCOPED_TRACE(::testing::Message() << "ladder stages=" << stages);
    const netlist::Circuit circuit = circuits::rc_ladder(stages);
    const netlist::Circuit canonical = netlist::canonicalize(circuit);
    const mna::NodalSystem system(canonical);
    PatternedMatrix assembly(system.dim(), system.stamps());
    SparseLu lu;
    ASSERT_TRUE(lu.factor(assembly.assemble({0.3, 0.95}, 1e9, 1e-3)));
    expect_all_properties(lu);
  }
  const netlist::Circuit ua741 = netlist::canonicalize(circuits::ua741());
  const mna::NodalSystem system(ua741);
  PatternedMatrix assembly(system.dim(), system.stamps());
  SparseLu lu;
  ASSERT_TRUE(lu.factor(assembly.assemble({0.3, 0.95}, 1.0, 1.0)));
  expect_all_properties(lu);
}

TEST(Supernodes, PartitionRoundTripsThroughReplay) {
  // Degenerate partitions must replay correctly: all-singleton (diagonal),
  // one-block (dense), and a mixed random pattern — refactor on the same
  // values is bit-identical to factor, whatever the partition looks like.
  support::Rng rng(31337);
  const auto check_roundtrip = [](const CompressedMatrix& c) {
    SparseLu lu;
    ASSERT_TRUE(lu.factor(c));
    const std::complex<double> det = lu.determinant().to_complex();
    ASSERT_TRUE(lu.refactor(c));
    EXPECT_EQ(lu.determinant().to_complex(), det);
  };

  std::vector<PatternStamp> diagonal;
  for (int i = 0; i < 9; ++i) diagonal.push_back(entry(i, i, {1.5 + i, -0.25}));
  check_roundtrip(at_i(9, diagonal));

  std::vector<PatternStamp> dense;
  for (int r = 0; r < 7; ++r) {
    for (int c = 0; c < 7; ++c) {
      const double diag = r == c ? 5.0 : 0.0;
      dense.push_back(entry(r, c, {diag + rng.uniform(-1, 1), rng.uniform(-1, 1)}));
    }
  }
  check_roundtrip(at_i(7, dense));

  check_roundtrip(random_matrix(rng, 40, 0.15));
}

}  // namespace
}  // namespace symref::sparse
