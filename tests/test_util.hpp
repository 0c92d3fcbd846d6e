// Shared fixtures: cached tiny datasets so each test binary builds its
// synthetic data once.
#pragma once

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "data/simulate.hpp"

namespace ptycho::testing {

/// Tiny noiseless dataset (32-px probe, 6x6 scan, 3 slices) — seconds to
/// reconstruct, used by solver/integration tests.
inline const Dataset& tiny_dataset() {
  static const Dataset dataset = [] {
    return make_synthetic_dataset(repro_tiny_spec());
  }();
  return dataset;
}

/// Same geometry but with Poisson shot noise at a moderate dose.
inline const Dataset& tiny_noisy_dataset() {
  static const Dataset dataset = [] {
    AcquisitionParams acq;
    acq.dose_electrons = 1.0e6;
    return make_synthetic_dataset(repro_tiny_spec(), SpecimenParams{}, acq);
  }();
  return dataset;
}

/// Overwrite `width` bytes at `offset` of a CRC-trailed checkpoint file
/// with the little-endian `value`, then recompute the CRC trailer so the
/// edit passes the integrity check and reaches the header parser.
inline void patch_checkpoint_file(const std::string& path, std::uint64_t offset,
                                  std::uint64_t value, int width) {
  std::vector<unsigned char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  for (int i = 0; i < width; ++i) {
    bytes.at(offset + static_cast<std::uint64_t>(i)) =
        static_cast<unsigned char>(value >> (8 * i));
  }
  const std::size_t body = bytes.size() - 4;
  const std::uint32_t crc = crc32(bytes.data(), body);
  for (int i = 0; i < 4; ++i) {
    bytes[body + static_cast<std::size_t>(i)] = static_cast<unsigned char>(crc >> (8 * i));
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

}  // namespace ptycho::testing
