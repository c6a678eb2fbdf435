#include "linalg/sparse.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace sysgo::linalg {
namespace {

TEST(Sparse, EmptyMatrix) {
  SparseMatrix m(3, 3, {});
  EXPECT_EQ(m.nnz(), 0u);
  const auto y = m.mul(std::vector<double>{1, 2, 3});
  for (double v : y) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Sparse, DuplicateTripletsAreSummed) {
  SparseMatrix m(2, 2, {{0, 1, 2.0}, {0, 1, 3.0}});
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 5.0);
}

TEST(Sparse, CancellingDuplicatesDropEntry) {
  SparseMatrix m(2, 2, {{0, 1, 2.0}, {0, 1, -2.0}});
  EXPECT_EQ(m.nnz(), 0u);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
}

TEST(Sparse, OutOfBoundsTripletThrows) {
  EXPECT_THROW(SparseMatrix(2, 2, {{2, 0, 1.0}}), std::out_of_range);
  EXPECT_THROW(SparseMatrix(2, 2, {{0, 5, 1.0}}), std::out_of_range);
}

TEST(Sparse, MatVecMatchesDense) {
  SparseMatrix m(3, 2, {{0, 0, 1.0}, {1, 1, 2.0}, {2, 0, -1.0}, {2, 1, 0.5}});
  const std::vector<double> x{3.0, 4.0};
  const auto ys = m.mul(x);
  const auto yd = m.to_dense().mul(x);
  ASSERT_EQ(ys.size(), yd.size());
  for (std::size_t i = 0; i < ys.size(); ++i) EXPECT_DOUBLE_EQ(ys[i], yd[i]);
}

TEST(Sparse, TransposeMatVecMatchesDenseTranspose) {
  SparseMatrix m(3, 2, {{0, 0, 1.0}, {1, 1, 2.0}, {2, 0, -1.0}});
  const std::vector<double> x{1.0, -1.0, 2.0};
  const auto ys = m.mul_transpose(x);
  const auto yd = m.to_dense().transpose().mul(x);
  ASSERT_EQ(ys.size(), yd.size());
  for (std::size_t i = 0; i < ys.size(); ++i) EXPECT_DOUBLE_EQ(ys[i], yd[i]);
}

TEST(Sparse, AtFindsEntries) {
  SparseMatrix m(3, 3, {{1, 2, 4.0}, {1, 0, 3.0}});
  EXPECT_DOUBLE_EQ(m.at(1, 2), 4.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.at(2, 2), 0.0);
}

TEST(Sparse, NormsMatchDense) {
  SparseMatrix m(2, 3, {{0, 0, 1.0}, {0, 2, -2.0}, {1, 1, 3.0}});
  const auto d = m.to_dense();
  EXPECT_DOUBLE_EQ(m.inf_norm(), d.inf_norm());
  EXPECT_DOUBLE_EQ(m.one_norm(), d.one_norm());
}

}  // namespace
}  // namespace sysgo::linalg
