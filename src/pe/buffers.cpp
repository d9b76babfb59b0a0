#include "pe/buffers.hpp"

#include "common/error.hpp"

namespace aurora::pe {

BankBuffer::BankBuffer(Bytes capacity, std::uint32_t num_banks)
    : num_banks_(num_banks) {
  AURORA_CHECK(capacity > 0);
  AURORA_CHECK(num_banks > 0);
}

Cycle BankBuffer::access(Bytes bytes, bool is_write) {
  if (is_write) {
    bytes_written_ += bytes;
  } else {
    bytes_read_ += bytes;
  }
  const Bytes per_cycle = kBankWidth * num_banks_;
  return (bytes + per_cycle - 1) / per_cycle;
}

}  // namespace aurora::pe
