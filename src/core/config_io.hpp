// AuroraConfig <-> INI file bridge, so experiments can pin chip
// configurations in version-controlled files.
//
// Recognised keys (all optional; unset keys keep their defaults):
//   [chip]  array_dim (>= 2), frequency_mhz, element_bytes, ring_size,
//           buffer_fill_fraction, flops_per_pe, mode (cycle|analytic),
//           fast_forward (true|false), mapping (degree-aware|hashing)
//   [pe]    multipliers, adders, bank_buffer_kib, bank_count,
//           pipeline_depth
//   [noc]   flit_bytes, num_vcs (1-4), input_buffer_flits, router_delay
//   [dram]  channels, banks, row_bytes, burst_bytes, t_rcd, t_rp, t_cl,
//           t_burst, t_refi, t_rfc
#pragma once

#include <iosfwd>
#include <string>

#include "common/ini.hpp"
#include "core/config.hpp"

namespace aurora::core {

/// Parse `chip.mode` / `chip.mapping` values (`cycle|analytic`,
/// `degree-aware|hashing`); anything else throws Error naming `what`, so
/// INI keys and CLI flags reject typos with one wording.
[[nodiscard]] SimMode sim_mode_by_name(const std::string& name,
                                       const std::string& what);
[[nodiscard]] MappingPolicy mapping_policy_by_name(const std::string& name,
                                                   const std::string& what);

/// Apply an INI file on top of `base` (defaults for anything unset). Values
/// follow the strict CLI rules; an unknown section or key, like a bad value,
/// throws Error naming the file, line and `[section] key`.
[[nodiscard]] AuroraConfig config_from_ini(const IniFile& ini,
                                           AuroraConfig base = {});

[[nodiscard]] AuroraConfig load_config(const std::string& path,
                                       AuroraConfig base = {});

/// Serialise every recognised key (round-trips through config_from_ini).
[[nodiscard]] std::string config_to_ini(const AuroraConfig& config);

}  // namespace aurora::core
