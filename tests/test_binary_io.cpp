#include "matrix/binary_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "matrix/generators.hpp"

namespace acs {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

TEST(BinaryIo, RoundTripDouble) {
  const auto m = gen_uniform_random<double>(100, 80, 6.0, 2.0, 11);
  const auto path = temp_path("acs_bin_d.acsb");
  write_binary_file(path, m);
  const auto back = read_binary_file<double>(path);
  EXPECT_TRUE(m.equals_exact(back));
  std::remove(path.c_str());
}

TEST(BinaryIo, RoundTripFloat) {
  const auto m = gen_powerlaw<float>(60, 60, 3.0, 1.6, 30, 5);
  const auto path = temp_path("acs_bin_f.acsb");
  write_binary_file(path, m);
  const auto back = read_binary_file<float>(path);
  EXPECT_TRUE(m.equals_exact(back));
  std::remove(path.c_str());
}

TEST(BinaryIo, ValueWidthMismatchThrows) {
  const auto m = gen_banded<float>(10, 1, 1);
  const auto path = temp_path("acs_bin_w.acsb");
  write_binary_file(path, m);
  EXPECT_THROW(read_binary_file<double>(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(BinaryIo, BadMagicThrows) {
  const auto path = temp_path("acs_bin_m.acsb");
  std::ofstream(path) << "not a binary matrix file at all";
  EXPECT_THROW(read_binary_file<double>(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(BinaryIo, TruncatedFileThrows) {
  const auto m = gen_banded<double>(50, 3, 2);
  const auto path = temp_path("acs_bin_t.acsb");
  write_binary_file(path, m);
  // Truncate to half size.
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)), {});
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size() / 2));
  out.close();
  EXPECT_THROW(read_binary_file<double>(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(BinaryIo, VersionMismatchThrows) {
  const auto m = gen_banded<double>(8, 1, 4);
  const auto path = temp_path("acs_bin_v.acsb");
  write_binary_file(path, m);
  // Corrupt the version word (bytes 4..7).
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(4);
  const std::uint32_t bad = 999;
  f.write(reinterpret_cast<const char*>(&bad), 4);
  f.close();
  EXPECT_THROW(read_binary_file<double>(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(BinaryIo, EmptyMatrixRoundTrip) {
  Csr<double> m;
  m.rows = 7;
  m.cols = 3;
  m.row_ptr.assign(8, 0);
  const auto path = temp_path("acs_bin_e.acsb");
  write_binary_file(path, m);
  const auto back = read_binary_file<double>(path);
  EXPECT_TRUE(m.equals_exact(back));
  std::remove(path.c_str());
}

/// Overwrite `bytes` bytes at `offset` of the file at `path` with `value`.
template <class V>
void patch(const std::string& path, std::streamoff offset, V value) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(offset);
  f.write(reinterpret_cast<const char*>(&value), sizeof(V));
}

// Header layout: magic(4) version(4) value width(4) rows(4) cols(4) nnz(8).
constexpr std::streamoff kColsOffset = 16;
constexpr std::streamoff kNnzOffset = 20;
constexpr std::streamoff kHeaderBytes = 28;

/// A forged nnz must be rejected from the header alone: beyond the 32-bit
/// index range, or merely beyond what the file holds. Allocating either
/// size first would ask for gigabytes (std::bad_alloc is not a
/// std::runtime_error, so these checks also pin the order).
TEST(BinaryIo, ForgedHugeNnzThrowsBeforeAllocating) {
  const auto m = gen_banded<double>(20, 1, 6);
  const auto path = temp_path("acs_bin_n.acsb");
  for (const std::int64_t forged :
       {std::int64_t{1} << 40,
        static_cast<std::int64_t>(std::numeric_limits<index_t>::max())}) {
    write_binary_file(path, m);
    patch(path, kNnzOffset, forged);
    EXPECT_THROW(read_binary_file<double>(path), std::runtime_error)
        << "nnz " << forged;
  }
  write_binary_file(path, m);
  patch(path, kColsOffset, index_t{-1});
  EXPECT_THROW(read_binary_file<double>(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(BinaryIo, OutOfRangeColumnIndexThrows) {
  const auto m = gen_banded<double>(12, 1, 7);
  const auto path = temp_path("acs_bin_c.acsb");
  write_binary_file(path, m);
  const std::streamoff first_col =
      kHeaderBytes +
      static_cast<std::streamoff>(m.row_ptr.size() * sizeof(index_t));
  patch(path, first_col, m.cols + 5);
  EXPECT_THROW(read_binary_file<double>(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(BinaryIo, MissingFileThrows) {
  EXPECT_THROW(read_binary_file<double>(temp_path("does_not_exist.acsb")),
               std::runtime_error);
}

}  // namespace
}  // namespace acs
