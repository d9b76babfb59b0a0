// PE-local storage: the distributed bank buffer (paper Fig 5). The reuse
// FIFO of Fig 5 is not modeled as its own structure: the cycle engine moves
// neighbour features over the NoC and costs their buffering as bank-buffer
// accesses.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace aurora::pe {

/// The distributed bank buffer. Multi-banked so aggregation's random access
/// pattern can sustain one access per bank per cycle; counts access bytes
/// for the energy model. Capacity is a tiling constraint (core::plan_layer
/// sizes tiles against the whole distributed buffer), so the buffer itself
/// models bandwidth only.
class BankBuffer {
 public:
  BankBuffer(Bytes capacity, std::uint32_t num_banks);

  /// Record an access (read or write) of `bytes`; returns the cycles the
  /// access occupies, assuming perfect bank interleaving.
  Cycle access(Bytes bytes, bool is_write);

  [[nodiscard]] Bytes bytes_read() const { return bytes_read_; }
  [[nodiscard]] Bytes bytes_written() const { return bytes_written_; }

  /// Bytes per bank per cycle.
  static constexpr Bytes kBankWidth = 8;

 private:
  std::uint32_t num_banks_;
  Bytes bytes_read_ = 0;
  Bytes bytes_written_ = 0;
};

}  // namespace aurora::pe
