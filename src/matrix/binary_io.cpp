#include "matrix/binary_io.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>

namespace acs {
namespace {

constexpr char kMagic[4] = {'A', 'C', 'S', 'B'};
constexpr std::uint32_t kVersion = 1;

template <class V>
void write_raw(std::ostream& out, const V* data, std::size_t count) {
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(count * sizeof(V)));
}

template <class V>
void read_raw(std::istream& in, V* data, std::size_t count) {
  in.read(reinterpret_cast<char*>(data),
          static_cast<std::streamsize>(count * sizeof(V)));
  if (!in) throw std::runtime_error("acsb: truncated file");
}

}  // namespace

template <class T>
void write_binary_file(const std::string& path, const Csr<T>& m) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("acsb: cannot open " + path + " for write");
  out.write(kMagic, 4);
  const std::uint32_t vw = sizeof(T);
  const std::int64_t nnz = m.nnz();
  write_raw(out, &kVersion, 1);
  write_raw(out, &vw, 1);
  write_raw(out, &m.rows, 1);
  write_raw(out, &m.cols, 1);
  write_raw(out, &nnz, 1);
  write_raw(out, m.row_ptr.data(), m.row_ptr.size());
  write_raw(out, m.col_idx.data(), m.col_idx.size());
  write_raw(out, m.values.data(), m.values.size());
  if (!out) throw std::runtime_error("acsb: write failed for " + path);
}

template <class T>
Csr<T> read_binary_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("acsb: cannot open " + path);
  char magic[4];
  read_raw(in, magic, 4);
  if (std::memcmp(magic, kMagic, 4) != 0)
    throw std::runtime_error("acsb: bad magic in " + path);
  std::uint32_t version = 0, vw = 0;
  std::int64_t nnz = 0;
  Csr<T> m;
  read_raw(in, &version, 1);
  read_raw(in, &vw, 1);
  read_raw(in, &m.rows, 1);
  read_raw(in, &m.cols, 1);
  read_raw(in, &nnz, 1);
  if (version != kVersion) throw std::runtime_error("acsb: unknown version");
  if (vw != sizeof(T)) throw std::runtime_error("acsb: value width mismatch");
  if (m.rows < 0 || m.cols < 0 || nnz < 0)
    throw std::runtime_error("acsb: negative sizes");
  if (nnz > std::numeric_limits<index_t>::max())
    throw std::runtime_error("acsb: nnz exceeds the 32-bit index range");
  // The header is untrusted: check the sizes it claims against the bytes
  // actually left in the file before allocating anything.
  const std::streamoff header_end = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff file_end = in.tellg();
  in.seekg(header_end);
  if (!in || header_end < 0 || file_end < header_end)
    throw std::runtime_error("acsb: cannot determine the length of " + path);
  const auto rows = static_cast<std::uint64_t>(m.rows);
  const auto entries = static_cast<std::uint64_t>(nnz);
  const std::uint64_t body = (rows + 1) * sizeof(index_t) +
                             entries * (sizeof(index_t) + sizeof(T));
  if (body > static_cast<std::uint64_t>(file_end - header_end))
    throw std::runtime_error("acsb: header sizes exceed the file length");
  m.row_ptr.resize(static_cast<std::size_t>(rows) + 1);
  m.col_idx.resize(static_cast<std::size_t>(entries));
  m.values.resize(static_cast<std::size_t>(entries));
  read_raw(in, m.row_ptr.data(), m.row_ptr.size());
  read_raw(in, m.col_idx.data(), m.col_idx.size());
  read_raw(in, m.values.data(), m.values.size());
  if (const std::string err = m.validate(); !err.empty())
    throw std::runtime_error("acsb: invalid matrix in " + path + ": " + err);
  return m;
}

template void write_binary_file(const std::string&, const Csr<float>&);
template void write_binary_file(const std::string&, const Csr<double>&);
template Csr<float> read_binary_file<float>(const std::string&);
template Csr<double> read_binary_file<double>(const std::string&);

}  // namespace acs
