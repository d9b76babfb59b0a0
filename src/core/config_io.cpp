#include "core/config_io.hpp"

#include <sstream>

#include "common/error.hpp"
#include "noc/network.hpp"

namespace aurora::core {

SimMode sim_mode_by_name(const std::string& name, const std::string& what) {
  if (name != "cycle" && name != "analytic") {
    throw Error(what + " must be 'cycle' or 'analytic', got " + name);
  }
  return name == "cycle" ? SimMode::kCycleAccurate : SimMode::kAnalytic;
}

MappingPolicy mapping_policy_by_name(const std::string& name,
                                     const std::string& what) {
  if (name != "degree-aware" && name != "hashing") {
    throw Error(what + " must be 'degree-aware' or 'hashing', got " + name);
  }
  return name == "degree-aware" ? MappingPolicy::kDegreeAware
                                : MappingPolicy::kHashing;
}

AuroraConfig config_from_ini(const IniFile& ini, AuroraConfig base) {
  AuroraConfig c = base;
  const auto u32 = [&](const char* sec, const char* key, auto fallback) {
    return ini.get_uint(sec, key, static_cast<std::uint32_t>(fallback));
  };

  // Every engine needs a mesh of at least 2x2.
  c.array_dim = ini.get_uint("chip", "array_dim", c.array_dim, 2);
  c.noc.k = c.array_dim;
  c.frequency_mhz = ini.get_double("chip", "frequency_mhz", c.frequency_mhz);
  c.element_bytes = u32("chip", "element_bytes", c.element_bytes);
  c.ring_size = u32("chip", "ring_size", c.ring_size);
  c.buffer_fill_fraction =
      ini.get_double("chip", "buffer_fill_fraction", c.buffer_fill_fraction);
  c.flops_per_pe = ini.get_double("chip", "flops_per_pe", c.flops_per_pe);
  c.mode = sim_mode_by_name(
      ini.get_string("chip", "mode",
                     c.mode == SimMode::kCycleAccurate ? "cycle" : "analytic"),
      ini.where("chip", "mode"));
  c.fast_forward = ini.get_bool("chip", "fast_forward", c.fast_forward);
  c.mapping_policy = mapping_policy_by_name(
      ini.get_string("chip", "mapping",
                     c.mapping_policy == MappingPolicy::kDegreeAware
                         ? "degree-aware"
                         : "hashing"),
      ini.where("chip", "mapping"));

  c.pe.datapath.num_multipliers =
      u32("pe", "multipliers", c.pe.datapath.num_multipliers);
  c.pe.datapath.num_adders = u32("pe", "adders", c.pe.datapath.num_adders);
  c.pe.datapath.pipeline_depth =
      u32("pe", "pipeline_depth", c.pe.datapath.pipeline_depth);
  c.pe.bank_buffer_bytes =
      1024ull * u32("pe", "bank_buffer_kib", c.pe.bank_buffer_bytes / 1024);
  c.pe.bank_count = u32("pe", "bank_count", c.pe.bank_count);

  c.noc.flit_bytes = u32("noc", "flit_bytes", c.noc.flit_bytes);
  c.noc.num_vcs = ini.get_uint("noc", "num_vcs", c.noc.num_vcs, 1,
                               noc::Network::kMaxVcs);
  c.noc.input_buffer_flits =
      u32("noc", "input_buffer_flits", c.noc.input_buffer_flits);
  c.noc.router_delay = u32("noc", "router_delay", c.noc.router_delay);

  c.dram.num_channels = u32("dram", "channels", c.dram.num_channels);
  c.dram.banks_per_channel = u32("dram", "banks", c.dram.banks_per_channel);
  c.dram.row_bytes = u32("dram", "row_bytes", c.dram.row_bytes);
  c.dram.burst_bytes = u32("dram", "burst_bytes", c.dram.burst_bytes);
  c.dram.timing.t_rcd = u32("dram", "t_rcd", c.dram.timing.t_rcd);
  c.dram.timing.t_rp = u32("dram", "t_rp", c.dram.timing.t_rp);
  c.dram.timing.t_cl = u32("dram", "t_cl", c.dram.timing.t_cl);
  c.dram.timing.t_burst = u32("dram", "t_burst", c.dram.timing.t_burst);
  c.dram.timing.t_refi = u32("dram", "t_refi", c.dram.timing.t_refi);
  c.dram.timing.t_rfc = u32("dram", "t_rfc", c.dram.timing.t_rfc);
  ini.reject_unread();
  return c;
}

AuroraConfig load_config(const std::string& path, AuroraConfig base) {
  return config_from_ini(IniFile::load(path), base);
}

std::string config_to_ini(const AuroraConfig& c) {
  std::ostringstream os;
  os << "[chip]\n"
     << "array_dim = " << c.array_dim << "\n"
     << "frequency_mhz = " << c.frequency_mhz << "\n"
     << "element_bytes = " << c.element_bytes << "\n"
     << "ring_size = " << c.ring_size << "\n"
     << "buffer_fill_fraction = " << c.buffer_fill_fraction << "\n"
     << "flops_per_pe = " << c.flops_per_pe << "\n"
     << "mode = "
     << (c.mode == SimMode::kCycleAccurate ? "cycle" : "analytic") << "\n"
     << "fast_forward = " << (c.fast_forward ? "true" : "false") << "\n"
     << "mapping = "
     << (c.mapping_policy == MappingPolicy::kDegreeAware ? "degree-aware"
                                                         : "hashing")
     << "\n\n[pe]\n"
     << "multipliers = " << c.pe.datapath.num_multipliers << "\n"
     << "adders = " << c.pe.datapath.num_adders << "\n"
     << "pipeline_depth = " << c.pe.datapath.pipeline_depth << "\n"
     << "bank_buffer_kib = " << c.pe.bank_buffer_bytes / 1024 << "\n"
     << "bank_count = " << c.pe.bank_count << "\n"
     << "\n[noc]\n"
     << "flit_bytes = " << c.noc.flit_bytes << "\n"
     << "num_vcs = " << c.noc.num_vcs << "\n"
     << "input_buffer_flits = " << c.noc.input_buffer_flits << "\n"
     << "router_delay = " << c.noc.router_delay << "\n"
     << "\n[dram]\n"
     << "channels = " << c.dram.num_channels << "\n"
     << "banks = " << c.dram.banks_per_channel << "\n"
     << "row_bytes = " << c.dram.row_bytes << "\n"
     << "burst_bytes = " << c.dram.burst_bytes << "\n"
     << "t_rcd = " << c.dram.timing.t_rcd << "\n"
     << "t_rp = " << c.dram.timing.t_rp << "\n"
     << "t_cl = " << c.dram.timing.t_cl << "\n"
     << "t_burst = " << c.dram.timing.t_burst << "\n"
     << "t_refi = " << c.dram.timing.t_refi << "\n"
     << "t_rfc = " << c.dram.timing.t_rfc << "\n";
  return os.str();
}

}  // namespace aurora::core
