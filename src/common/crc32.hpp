// CRC-32 (IEEE 802.3 reflected polynomial 0xEDB88320), incremental.
//
// One implementation shared by the two on-the-wire/on-disk integrity
// layers: socket frame checksums (runtime/socket_transport.cpp) and
// checkpoint file checksums (ckpt/serialize.cpp). The CRC is defined over
// the byte stream, so it is endian-stable wherever the bytes themselves
// are (the checkpoint format encodes scalars explicitly little-endian).
//
// The body lives out of line in crc32.cpp (slice-by-16 tables). Keep it
// there: inlining it into every caller moved hot FFT and kernel symbols
// in the final binary and measurably slowed workloads that never call it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ptycho {

/// CRC-32 of `n` bytes at `data`, chained: pass a previous call's return
/// value as `crc` to extend the checksum over a split buffer (the default
/// 0 starts a fresh stream).
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t crc = 0);

}  // namespace ptycho
