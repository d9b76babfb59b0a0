// Tests for INI parsing and the AuroraConfig file bridge.
#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "common/ini.hpp"
#include "core/aurora.hpp"
#include "core/config_io.hpp"

namespace aurora {
namespace {

TEST(Ini, ParsesSectionsKeysComments) {
  std::istringstream in(
      "; top comment\n"
      "[chip]\n"
      "array_dim = 32      ; inline comment\n"
      "mode = analytic\n"
      "\n"
      "[dram]\n"
      "channels = 8\n"
      "# another comment\n");
  const IniFile ini = IniFile::parse(in);
  EXPECT_EQ(ini.num_sections(), 2u);
  EXPECT_TRUE(ini.has("chip", "array_dim"));
  EXPECT_EQ(ini.get_uint("chip", "array_dim", 0), 32u);
  EXPECT_EQ(ini.get_string("chip", "mode", ""), "analytic");
  EXPECT_EQ(ini.get_uint("dram", "channels", 0), 8u);
  EXPECT_EQ(ini.get_uint("dram", "missing", 42), 42u);
  EXPECT_FALSE(ini.has("nope", "x"));
}

TEST(Ini, TypedGetters) {
  std::istringstream in(
      "[s]\n"
      "f = 0.25\n"
      "yes1 = true\n"
      "yes2 = on\n"
      "no = off\n");
  const IniFile ini = IniFile::parse(in);
  EXPECT_DOUBLE_EQ(ini.get_double("s", "f", 0.0), 0.25);
  EXPECT_TRUE(ini.get_bool("s", "yes1", false));
  // One boolean vocabulary, the CLI's: on/off are not booleans.
  EXPECT_THROW((void)ini.get_bool("s", "yes2", false), Error);
  EXPECT_THROW((void)ini.get_bool("s", "no", true), Error);
  EXPECT_TRUE(ini.get_bool("s", "missing", true));
}

TEST(Ini, RejectsMalformedLines) {
  std::istringstream no_eq("[a]\njust a dangling token\n");
  EXPECT_THROW((void)IniFile::parse(no_eq), Error);
  std::istringstream bad_section("[unterminated\n");
  EXPECT_THROW((void)IniFile::parse(bad_section), Error);
  std::istringstream empty_key("[a]\n= 3\n");
  EXPECT_THROW((void)IniFile::parse(empty_key), Error);
}

TEST(ConfigIo, AppliesOverridesOnTopOfBase) {
  std::istringstream in(
      "[chip]\n"
      "array_dim = 8\n"
      "mode = analytic\n"
      "mapping = hashing\n"
      "[pe]\n"
      "bank_buffer_kib = 64\n"
      "[noc]\n"
      "num_vcs = 4\n"
      "[dram]\n"
      "channels = 2\n"
      "t_refi = 0\n");
  const auto cfg =
      core::config_from_ini(IniFile::parse(in), core::AuroraConfig::bench());
  EXPECT_EQ(cfg.array_dim, 8u);
  EXPECT_EQ(cfg.noc.k, 8u);  // mesh follows array_dim
  EXPECT_EQ(cfg.mode, core::SimMode::kAnalytic);
  EXPECT_EQ(cfg.mapping_policy, core::MappingPolicy::kHashing);
  EXPECT_EQ(cfg.pe.bank_buffer_bytes, 64u * 1024);
  EXPECT_EQ(cfg.noc.num_vcs, 4u);
  EXPECT_EQ(cfg.dram.num_channels, 2u);
  EXPECT_EQ(cfg.dram.timing.t_refi, 0u);
  // Untouched keys keep their base defaults.
  EXPECT_EQ(cfg.ring_size, core::AuroraConfig::bench().ring_size);
}

TEST(ConfigIo, RoundTripsThroughIni) {
  core::AuroraConfig original = core::AuroraConfig::paper();
  original.ring_size = 4;
  original.noc.num_vcs = 3;
  original.dram.timing.t_cl = 13;
  std::istringstream in(core::config_to_ini(original));
  const auto back = core::config_from_ini(IniFile::parse(in));
  EXPECT_EQ(back.array_dim, original.array_dim);
  EXPECT_EQ(back.ring_size, original.ring_size);
  EXPECT_EQ(back.noc.num_vcs, original.noc.num_vcs);
  EXPECT_EQ(back.dram.timing.t_cl, original.dram.timing.t_cl);
  EXPECT_EQ(back.mode, original.mode);
  EXPECT_EQ(back.pe.bank_buffer_bytes, original.pe.bank_buffer_bytes);
}

TEST(ConfigIo, RejectsBadMode) {
  std::istringstream in("[chip]\nmode = warp\n");
  EXPECT_THROW((void)core::config_from_ini(IniFile::parse(in)), Error);
}

TEST(ConfigIo, RejectsBadValuesAndKeysNamingLineAndKey) {
  struct Case {
    const char* body;   // from line 4, after a comment and a [pe] section
    const char* where;  // expected in the error
  };
  const Case cases[] = {
      {"[chip]\narray_dim = 16x\n", "chip.ini:5: [chip] array_dim = 16x"},
      {"[noc]\nnum_vcs = -1\n", "chip.ini:5: [noc] num_vcs = -1"},
      {"[chip]\narray_dim = 1\n",
       "chip.ini:5: [chip] array_dim = 1 outside [2, 4294967295]"},
      {"[noc]\nnum_vcs = 0\n", "chip.ini:5: [noc] num_vcs = 0 outside [1, 4]"},
      {"[chip]\nfrequency_mhz = fast\n",
       "chip.ini:5: [chip] frequency_mhz = fast"},
      {"[chip]\nfast_forward = ture\n",
       "chip.ini:5: [chip] fast_forward = ture"},
      {"[chip]\naray_dim = 8\n", "chip.ini:5: [chip] aray_dim: unknown key"},
      {"[fabric]\nwidth = 3\n",
       "chip.ini:5: [fabric] width: unknown section"},
      {"[chip]\narray_dim = 8\narray_dim = 16\n",
       "chip.ini:6: [chip] array_dim: duplicate key (first set at line 5)"},
  };
  for (const Case& c : cases) {
    std::istringstream in(std::string("; chip\n[pe]\nmultipliers = 8\n") +
                          c.body);
    try {
      (void)core::config_from_ini(IniFile::parse(in, "chip.ini"));
      ADD_FAILURE() << "accepted: " << c.body;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(c.where), std::string::npos)
          << e.what();
    }
  }
}

TEST(ConfigIo, LoadedConfigDrivesAccelerator) {
  std::istringstream in(
      "[chip]\n"
      "array_dim = 8\n"
      "mode = analytic\n");
  const auto cfg = core::config_from_ini(IniFile::parse(in));
  core::AuroraAccelerator accel(cfg);
  const auto ds = graph::make_dataset(graph::DatasetId::kCora, 0.05);
  const auto m = accel.run_layer(ds, gnn::GnnModel::kGcn, {16, 8}, 1);
  EXPECT_GT(m.total_cycles, 0u);
  EXPECT_EQ(m.partition_a + m.partition_b, 64u);
}

}  // namespace
}  // namespace aurora
