#include "host_speed.hpp"

#include <algorithm>
#include <cstring>

namespace perfbench {

namespace {
constexpr std::size_t kMul = 128;   ///< tile multiply: 128^3 multiply-adds
constexpr std::size_t kTile = 16;
constexpr std::size_t kGrid = 512;  ///< stream: 512^2 floats = 1 MiB
}  // namespace

HostSpeed::HostSpeed(Kernel kernel) : kernel_(kernel) {
  const std::size_t n = kernel == Kernel::kTileMultiply ? kMul : kGrid;
  a_.resize(n * n);
  b_.resize(n * n);
  c_.resize(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    a_[i] = static_cast<float>(i % 17) * 0.25f;
    b_[i] = static_cast<float>(i % 13) * 0.5f;
  }
  crc_table_.resize(256);
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    crc_table_[i] = c;
  }
}

void HostSpeed::sample() {
  const auto t0 = Clock::now();
  if (kernel_ == Kernel::kTileMultiply) {
    tile_multiply();
  } else {
    stream();
  }
  samples_.push_back(seconds_since(t0));
}

double HostSpeed::scale() const {
  if (samples_.empty()) return 1.0;
  const double reference = kernel_ == Kernel::kTileMultiply
                               ? kTileMultiplyReferenceS
                               : kStreamReferenceS;
  return reference / median_s();
}

void HostSpeed::tile_multiply() {
  constexpr std::size_t n = kMul;
  constexpr std::size_t t = kTile;
  float la[t * t];
  float lb[t * t];
  float acc[t * t];
  for (std::size_t r0 = 0; r0 < n; r0 += t) {
    for (std::size_t c0 = 0; c0 < n; c0 += t) {
      std::fill(acc, acc + t * t, 0.0f);
      for (std::size_t k0 = 0; k0 < n; k0 += t) {
        for (std::size_t r = 0; r < t; ++r) {
          std::memcpy(la + r * t, &a_[(r0 + r) * n + k0], t * sizeof(float));
          std::memcpy(lb + r * t, &b_[(k0 + r) * n + c0], t * sizeof(float));
        }
        for (std::size_t r = 0; r < t; ++r) {
          for (std::size_t kk = 0; kk < t; ++kk) {
            const float av = la[r * t + kk];
            for (std::size_t cc = 0; cc < t; ++cc) {
              acc[r * t + cc] += av * lb[kk * t + cc];
            }
          }
        }
      }
      for (std::size_t r = 0; r < t; ++r) {
        std::memcpy(&c_[(r0 + r) * n + c0], acc + r * t, t * sizeof(float));
      }
    }
  }
  std::uint32_t bits = 0;
  std::memcpy(&bits, &c_[n + 1], sizeof bits);
  sink_ += bits;
}

void HostSpeed::stream() {
  constexpr std::size_t n = kGrid;
  std::memcpy(b_.data(), a_.data(), n * n * sizeof(float));
  std::uint32_t crc = 0xFFFFFFFFu;
  const auto* bytes = reinterpret_cast<const unsigned char*>(b_.data());
  for (std::size_t i = 0; i < n * n * sizeof(float); ++i) {
    crc = crc_table_[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  for (std::size_t r = 1; r + 1 < n; ++r) {
    for (std::size_t c = 1; c + 1 < n; ++c) {
      const std::size_t i = r * n + c;
      c_[i] = b_[i] + 0.1f * (b_[i - n] + b_[i + n] + b_[i - 1] + b_[i + 1] -
                              4.0f * b_[i]);
    }
  }
  std::uint32_t bits = 0;
  std::memcpy(&bits, &c_[n + 1], sizeof bits);
  sink_ += crc ^ bits;
}

}  // namespace perfbench
