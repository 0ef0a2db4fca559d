// The block codec is retired: a matrix block has one representation, raw
// binary CRS (spmv/csr.hpp), on disk, in memory and on the wire, and a
// leftover 'DCODBLK1' frame fails by name (kRetiredCodecMagic). This
// one-value stub exists for bench/e2e/workloads.cpp and goes with ROADMAP
// item 9.
#pragma once

namespace dooc::spmv::codec {

enum class Mode { Off };

struct CodecConfig {
  Mode mode = Mode::Off;
};

constexpr const char* mode_name(Mode) noexcept { return "off"; }

}  // namespace dooc::spmv::codec
